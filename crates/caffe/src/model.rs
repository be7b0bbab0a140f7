//! Caffe message schemas (`caffe.proto` subset) with binary encode/decode
//! and prototxt import.
//!
//! Field numbers follow upstream `caffe.proto` so real artifacts parse for
//! the supported layer set. Unknown fields are skipped (proto2 semantics);
//! unknown *layer types* are surfaced to the caller by the frontend, not
//! here.

use crate::text::{TextError, TextMessage};
use crate::wire::{WireError, WireReader, WireType, WireWriter};
use condor_tensor::{Shape, Tensor};

/// `BlobShape`: N-D extents of a blob (`dim = 1`, packed int64).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlobShape {
    /// Blob extents, outermost first.
    pub dim: Vec<u64>,
}

impl BlobShape {
    /// 4-D NCHW shape helper.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        BlobShape {
            dim: vec![n as u64, c as u64, h as u64, w as u64],
        }
    }

    /// Converts to the workspace 4-D shape. Shapes with fewer than four
    /// dims are right-aligned Caffe-style (e.g. `[500, 800]` for an FC
    /// weight matrix becomes `500×800×1×1`).
    pub fn to_shape(&self) -> Result<Shape, WireError> {
        match self.dim.len() {
            0 => Err(WireError::new("empty blob shape")),
            1 => Ok(Shape::new(1, self.dim[0] as usize, 1, 1)),
            2 => Ok(Shape::new(self.dim[0] as usize, self.dim[1] as usize, 1, 1)),
            3 => Ok(Shape::new(
                1,
                self.dim[0] as usize,
                self.dim[1] as usize,
                self.dim[2] as usize,
            )),
            4 => Ok(Shape::new(
                self.dim[0] as usize,
                self.dim[1] as usize,
                self.dim[2] as usize,
                self.dim[3] as usize,
            )),
            n => Err(WireError::new(format!("unsupported {n}-D blob shape"))),
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        w.packed_varints(1, &self.dim);
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut shape = BlobShape::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => r.read_varints(wt, &mut shape.dim)?,
                _ => r.skip(wt)?,
            }
        }
        Ok(shape)
    }
}

/// `BlobProto`: an N-D tensor with data (`data = 5`, packed float) and
/// either a `shape = 7` message or the legacy `num/channels/height/width`
/// fields 1–4.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlobProto {
    /// Modern shape descriptor.
    pub shape: Option<BlobShape>,
    /// Weight/bias values in row-major order.
    pub data: Vec<f32>,
    /// Legacy 4-D extents (pre-`BlobShape` Caffe).
    pub num: Option<i64>,
    /// Legacy channel extent.
    pub channels: Option<i64>,
    /// Legacy height extent.
    pub height: Option<i64>,
    /// Legacy width extent.
    pub width: Option<i64>,
}

impl BlobProto {
    /// Wraps a tensor as a blob with a modern shape.
    pub fn from_tensor(t: &Tensor) -> Self {
        let s = t.shape();
        BlobProto {
            shape: Some(BlobShape::nchw(s.n, s.c, s.h, s.w)),
            data: t.as_slice().to_vec(),
            num: None,
            channels: None,
            height: None,
            width: None,
        }
    }

    /// The blob's 4-D shape from either encoding.
    fn resolved_shape(&self) -> Result<Shape, WireError> {
        if let Some(shape) = &self.shape {
            return shape.to_shape();
        }
        match (self.num, self.channels, self.height, self.width) {
            (Some(n), Some(c), Some(h), Some(w)) => {
                Ok(Shape::new(n as usize, c as usize, h as usize, w as usize))
            }
            _ => Err(WireError::new("blob has neither shape nor legacy dims")),
        }
    }

    /// Converts to a tensor, validating data length against the shape.
    /// The decoded values move into the tensor; nothing is copied.
    pub fn into_tensor(self) -> Result<Tensor, WireError> {
        let shape = self.resolved_shape()?;
        if shape.len() != self.data.len() {
            return Err(WireError::new(format!(
                "blob shape {shape} expects {} values, found {}",
                shape.len(),
                self.data.len()
            )));
        }
        Ok(Tensor::from_vec(shape, self.data))
    }

    fn encode(&self, w: &mut WireWriter) {
        if let Some(n) = self.num {
            w.int(1, n);
        }
        if let Some(c) = self.channels {
            w.int(2, c);
        }
        if let Some(h) = self.height {
            w.int(3, h);
        }
        if let Some(wd) = self.width {
            w.int(4, wd);
        }
        w.packed_floats(5, &self.data);
        if let Some(shape) = &self.shape {
            w.message(7, |inner| shape.encode(inner));
        }
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut blob = BlobProto::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => blob.num = Some(r.read_varint()? as i64),
                2 => blob.channels = Some(r.read_varint()? as i64),
                3 => blob.height = Some(r.read_varint()? as i64),
                4 => blob.width = Some(r.read_varint()? as i64),
                5 => r.read_floats(wt, &mut blob.data)?,
                7 => blob.shape = Some(BlobShape::decode(r.read_bytes()?)?),
                _ => r.skip(wt)?,
            }
        }
        Ok(blob)
    }
}

/// `ConvolutionParameter` (fields per upstream: `num_output = 1`,
/// `bias_term = 2`, `pad = 3`, `kernel_size = 4`, `group = 5`,
/// `stride = 6`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvolutionParameter {
    /// Number of output feature maps (F in the paper).
    pub num_output: u32,
    /// Whether a bias is added (paper Eq. (1) `b_φ`).
    pub bias_term: bool,
    /// Symmetric zero padding.
    pub pad: u32,
    /// Square kernel extent (`M_f = N_f`).
    pub kernel_size: u32,
    /// Sliding-window stride.
    pub stride: u32,
}

impl Default for ConvolutionParameter {
    fn default() -> Self {
        ConvolutionParameter {
            num_output: 0,
            bias_term: true,
            pad: 0,
            kernel_size: 0,
            stride: 1,
        }
    }
}

impl ConvolutionParameter {
    fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.num_output as u64);
        w.bool(2, self.bias_term);
        if self.pad != 0 {
            w.uint(3, self.pad as u64);
        }
        w.uint(4, self.kernel_size as u64);
        if self.stride != 1 {
            w.uint(6, self.stride as u64);
        }
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut p = ConvolutionParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => p.num_output = r.read_varint()? as u32,
                2 => p.bias_term = r.read_varint()? != 0,
                3 => p.pad = last_repeated_u32(&mut r, wt)?,
                4 => p.kernel_size = last_repeated_u32(&mut r, wt)?,
                6 => p.stride = last_repeated_u32(&mut r, wt)?,
                _ => r.skip(wt)?,
            }
        }
        Ok(p)
    }

    fn from_text(m: &TextMessage) -> Result<Self, TextError> {
        Ok(ConvolutionParameter {
            num_output: m.uint_or("num_output", 0)?,
            bias_term: m.bool_or("bias_term", true)?,
            pad: m.uint_or("pad", 0)?,
            kernel_size: m.uint_or("kernel_size", 0)?,
            stride: m.uint_or("stride", 1)?,
        })
    }
}

/// `pad`/`kernel_size`/`stride` are `repeated uint32` upstream (per spatial
/// axis); Condor supports square kernels, so the last value wins and
/// repeats must agree.
fn last_repeated_u32(r: &mut WireReader<'_>, wt: WireType) -> Result<u32, WireError> {
    let mut vals = Vec::new();
    r.read_varints(wt, &mut vals)?;
    let last = *vals
        .last()
        .ok_or_else(|| WireError::new("empty repeated field"))?;
    if vals.iter().any(|&v| v != last) {
        return Err(WireError::new(
            "non-square kernels/strides/pads are not supported",
        ));
    }
    Ok(last as u32)
}

/// Pooling operator selection (`PoolingParameter.PoolMethod`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolMethod {
    /// `MAX = 0` — max-pooling, the paper's default sub-sampling operator.
    Max,
    /// `AVE = 1` — average pooling.
    Ave,
}

impl PoolMethod {
    fn from_enum(v: u64) -> Result<Self, WireError> {
        match v {
            0 => Ok(PoolMethod::Max),
            1 => Ok(PoolMethod::Ave),
            2 => Err(WireError::new("STOCHASTIC pooling is not supported")),
            other => Err(WireError::new(format!("unknown pool method {other}"))),
        }
    }

    fn to_enum(self) -> u64 {
        match self {
            PoolMethod::Max => 0,
            PoolMethod::Ave => 1,
        }
    }
}

/// `PoolingParameter` (`pool = 1`, `kernel_size = 2`, `stride = 3`,
/// `pad = 4`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolingParameter {
    /// Pooling operator.
    pub pool: PoolMethod,
    /// Window extent (ω_f = γ_f in paper Eq. (3)).
    pub kernel_size: u32,
    /// Window stride (ρ in paper Eq. (3)).
    pub stride: u32,
    /// Symmetric zero padding.
    pub pad: u32,
}

impl Default for PoolingParameter {
    fn default() -> Self {
        PoolingParameter {
            pool: PoolMethod::Max,
            kernel_size: 0,
            stride: 1,
            pad: 0,
        }
    }
}

impl PoolingParameter {
    fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.pool.to_enum());
        w.uint(2, self.kernel_size as u64);
        if self.stride != 1 {
            w.uint(3, self.stride as u64);
        }
        if self.pad != 0 {
            w.uint(4, self.pad as u64);
        }
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut p = PoolingParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => p.pool = PoolMethod::from_enum(r.read_varint()?)?,
                2 => p.kernel_size = r.read_varint()? as u32,
                3 => p.stride = r.read_varint()? as u32,
                4 => p.pad = r.read_varint()? as u32,
                _ => r.skip(wt)?,
            }
        }
        Ok(p)
    }

    fn from_text(m: &TextMessage) -> Result<Self, TextError> {
        let pool = match m.ident_or("pool", "MAX")?.as_str() {
            "MAX" => PoolMethod::Max,
            "AVE" => PoolMethod::Ave,
            other => {
                return Err(TextError::schema(format!(
                    "unsupported pool method '{other}'"
                )))
            }
        };
        Ok(PoolingParameter {
            pool,
            kernel_size: m.uint_or("kernel_size", 0)?,
            stride: m.uint_or("stride", 1)?,
            pad: m.uint_or("pad", 0)?,
        })
    }
}

/// `InnerProductParameter` (`num_output = 1`, `bias_term = 2`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InnerProductParameter {
    /// Number of output neurons.
    pub num_output: u32,
    /// Whether a bias is added (paper Eq. (4) `b_l`).
    pub bias_term: bool,
}

impl Default for InnerProductParameter {
    fn default() -> Self {
        InnerProductParameter {
            num_output: 0,
            bias_term: true,
        }
    }
}

impl InnerProductParameter {
    fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.num_output as u64);
        w.bool(2, self.bias_term);
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut p = InnerProductParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => p.num_output = r.read_varint()? as u32,
                2 => p.bias_term = r.read_varint()? != 0,
                _ => r.skip(wt)?,
            }
        }
        Ok(p)
    }

    fn from_text(m: &TextMessage) -> Result<Self, TextError> {
        Ok(InnerProductParameter {
            num_output: m.uint_or("num_output", 0)?,
            bias_term: m.bool_or("bias_term", true)?,
        })
    }
}

/// Element-wise operation selection (`EltwiseParameter.EltwiseOp`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EltwiseOperation {
    /// `PROD = 0` — element-wise product.
    Prod,
    /// `SUM = 1` — element-wise sum, the Caffe default.
    #[default]
    Sum,
    /// `MAX = 2` — element-wise maximum.
    Max,
}

impl EltwiseOperation {
    fn from_enum(v: u64) -> Result<Self, WireError> {
        match v {
            0 => Ok(EltwiseOperation::Prod),
            1 => Ok(EltwiseOperation::Sum),
            2 => Ok(EltwiseOperation::Max),
            other => Err(WireError::new(format!("unknown eltwise operation {other}"))),
        }
    }

    fn to_enum(self) -> u64 {
        match self {
            EltwiseOperation::Prod => 0,
            EltwiseOperation::Sum => 1,
            EltwiseOperation::Max => 2,
        }
    }

    /// The prototxt enum identifier.
    pub fn caffe_name(self) -> &'static str {
        match self {
            EltwiseOperation::Prod => "PROD",
            EltwiseOperation::Sum => "SUM",
            EltwiseOperation::Max => "MAX",
        }
    }
}

/// `EltwiseParameter` (`operation = 1`). The repeated `coeff = 2` field
/// is rejected rather than skipped: ignoring coefficients would silently
/// change the layer's arithmetic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EltwiseParameter {
    /// Merge operator applied across the bottoms.
    pub operation: EltwiseOperation,
}

impl EltwiseParameter {
    fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.operation.to_enum());
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut p = EltwiseParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => p.operation = EltwiseOperation::from_enum(r.read_varint()?)?,
                2 => return Err(WireError::new("eltwise coefficients are not supported")),
                _ => r.skip(wt)?,
            }
        }
        Ok(p)
    }

    fn from_text(m: &TextMessage) -> Result<Self, TextError> {
        if !m.all("coeff").is_empty() {
            return Err(TextError::schema("eltwise coefficients are not supported"));
        }
        let operation = match m.ident_or("operation", "SUM")?.as_str() {
            "PROD" => EltwiseOperation::Prod,
            "SUM" => EltwiseOperation::Sum,
            "MAX" => EltwiseOperation::Max,
            other => {
                return Err(TextError::schema(format!(
                    "unknown eltwise operation '{other}'"
                )))
            }
        };
        Ok(EltwiseParameter { operation })
    }
}

/// `ConcatParameter` (`axis = 2`, legacy `concat_dim = 1`).
///
/// Condor only executes channel concatenation (`axis = 1`, the Caffe
/// default); other axes parse here and are rejected by the frontend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcatParameter {
    /// Concatenation axis (1 = channels in NCHW).
    pub axis: i32,
}

impl Default for ConcatParameter {
    fn default() -> Self {
        ConcatParameter { axis: 1 }
    }
}

impl ConcatParameter {
    fn encode(&self, w: &mut WireWriter) {
        if self.axis != 1 {
            w.int(2, self.axis as i64);
        }
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut p = ConcatParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => p.axis = r.read_varint()? as i32,
                2 => p.axis = r.read_varint()? as i32,
                _ => r.skip(wt)?,
            }
        }
        Ok(p)
    }

    fn from_text(m: &TextMessage) -> Result<Self, TextError> {
        let axis = match m.single("axis")? {
            Some(_) => m.uint_or("axis", 1)? as i32,
            None => m.uint_or("concat_dim", 1)? as i32,
        };
        Ok(ConcatParameter { axis })
    }
}

/// `InputParameter` (`shape = 1`, repeated `BlobShape`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InputParameter {
    /// Shapes of the network inputs.
    pub shape: Vec<BlobShape>,
}

impl InputParameter {
    fn encode(&self, w: &mut WireWriter) {
        for s in &self.shape {
            w.message(1, |inner| s.encode(inner));
        }
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut p = InputParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => p.shape.push(BlobShape::decode(r.read_bytes()?)?),
                _ => r.skip(wt)?,
            }
        }
        Ok(p)
    }
}

/// `LayerParameter`: one layer of the network with its typed parameter
/// message and (in `caffemodel` files) its learned blobs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerParameter {
    /// Layer name (`name = 1`).
    pub name: String,
    /// Layer type string, e.g. `"Convolution"` (`type = 2`).
    pub type_: String,
    /// Input blob names (`bottom = 3`).
    pub bottom: Vec<String>,
    /// Output blob names (`top = 4`).
    pub top: Vec<String>,
    /// Learned blobs: weights then bias (`blobs = 7`).
    pub blobs: Vec<BlobProto>,
    /// `concat_param = 104`.
    pub concat_param: Option<ConcatParameter>,
    /// `convolution_param = 106`.
    pub convolution_param: Option<ConvolutionParameter>,
    /// `eltwise_param = 110`.
    pub eltwise_param: Option<EltwiseParameter>,
    /// `inner_product_param = 117`.
    pub inner_product_param: Option<InnerProductParameter>,
    /// `pooling_param = 121`.
    pub pooling_param: Option<PoolingParameter>,
    /// `input_param = 143`.
    pub input_param: Option<InputParameter>,
    /// `relu_param.negative_slope` when present (`relu_param = 123`).
    pub relu_negative_slope: f32,
}

impl LayerParameter {
    fn encode(&self, w: &mut WireWriter) {
        w.string(1, &self.name);
        w.string(2, &self.type_);
        for b in &self.bottom {
            w.string(3, b);
        }
        for t in &self.top {
            w.string(4, t);
        }
        for blob in &self.blobs {
            w.message(7, |inner| blob.encode(inner));
        }
        if let Some(p) = &self.concat_param {
            w.message(104, |inner| p.encode(inner));
        }
        if let Some(p) = &self.convolution_param {
            w.message(106, |inner| p.encode(inner));
        }
        if let Some(p) = &self.eltwise_param {
            w.message(110, |inner| p.encode(inner));
        }
        if let Some(p) = &self.inner_product_param {
            w.message(117, |inner| p.encode(inner));
        }
        if let Some(p) = &self.pooling_param {
            w.message(121, |inner| p.encode(inner));
        }
        if self.relu_negative_slope != 0.0 {
            w.message(123, |inner| inner.float(1, self.relu_negative_slope));
        }
        if let Some(p) = &self.input_param {
            w.message(143, |inner| p.encode(inner));
        }
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut layer = LayerParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => layer.name = r.read_string()?,
                2 => layer.type_ = r.read_string()?,
                3 => layer.bottom.push(r.read_string()?),
                4 => layer.top.push(r.read_string()?),
                7 => layer.blobs.push(BlobProto::decode(r.read_bytes()?)?),
                104 => layer.concat_param = Some(ConcatParameter::decode(r.read_bytes()?)?),
                106 => {
                    layer.convolution_param = Some(ConvolutionParameter::decode(r.read_bytes()?)?)
                }
                110 => layer.eltwise_param = Some(EltwiseParameter::decode(r.read_bytes()?)?),
                117 => {
                    layer.inner_product_param =
                        Some(InnerProductParameter::decode(r.read_bytes()?)?)
                }
                121 => layer.pooling_param = Some(PoolingParameter::decode(r.read_bytes()?)?),
                123 => {
                    let payload = r.read_bytes()?;
                    let mut inner = WireReader::new(payload);
                    while let Some((f, iwt)) = inner.next_field()? {
                        if f == 1 && iwt == WireType::Fixed32 {
                            layer.relu_negative_slope = inner.read_float()?;
                        } else {
                            inner.skip(iwt)?;
                        }
                    }
                }
                143 => layer.input_param = Some(InputParameter::decode(r.read_bytes()?)?),
                _ => r.skip(wt)?,
            }
        }
        Ok(layer)
    }

    fn from_text(m: &TextMessage) -> Result<Self, TextError> {
        let mut layer = LayerParameter {
            name: m.string_or("name", "")?,
            type_: m.string_or("type", "")?,
            bottom: m.strings("bottom")?,
            top: m.strings("top")?,
            ..LayerParameter::default()
        };
        if let Some(p) = m.message("concat_param")? {
            layer.concat_param = Some(ConcatParameter::from_text(p)?);
        }
        if let Some(p) = m.message("convolution_param")? {
            layer.convolution_param = Some(ConvolutionParameter::from_text(p)?);
        }
        if let Some(p) = m.message("eltwise_param")? {
            layer.eltwise_param = Some(EltwiseParameter::from_text(p)?);
        }
        if let Some(p) = m.message("inner_product_param")? {
            layer.inner_product_param = Some(InnerProductParameter::from_text(p)?);
        }
        if let Some(p) = m.message("pooling_param")? {
            layer.pooling_param = Some(PoolingParameter::from_text(p)?);
        }
        if let Some(p) = m.message("relu_param")? {
            layer.relu_negative_slope = p.float_or("negative_slope", 0.0)?;
        }
        if let Some(p) = m.message("input_param")? {
            let mut ip = InputParameter::default();
            for shape_msg in p.messages("shape")? {
                ip.shape.push(BlobShape {
                    dim: shape_msg.uints("dim")?,
                });
            }
            layer.input_param = Some(ip);
        }
        Ok(layer)
    }
}

/// `NetParameter`: the whole network (`name = 1`, legacy `input = 3` /
/// `input_dim = 4`, `input_shape = 8`, `layer = 100`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetParameter {
    /// Network name.
    pub name: String,
    /// Legacy top-level input blob names.
    pub input: Vec<String>,
    /// Legacy input dims, 4 per input.
    pub input_dim: Vec<i64>,
    /// Modern input shapes.
    pub input_shape: Vec<BlobShape>,
    /// The layers in topological order (Caffe convention).
    pub layer: Vec<LayerParameter>,
}

impl NetParameter {
    /// Serialises to `caffemodel` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.string(1, &self.name);
        for i in &self.input {
            w.string(3, i);
        }
        for &d in &self.input_dim {
            w.int(4, d);
        }
        for s in &self.input_shape {
            w.message(8, |inner| s.encode(inner));
        }
        for l in &self.layer {
            w.message(100, |inner| l.encode(inner));
        }
        w.into_bytes()
    }

    /// Parses `caffemodel` bytes.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(data);
        let mut net = NetParameter::default();
        while let Some((field, wt)) = r.next_field()? {
            match field {
                1 => net.name = r.read_string()?,
                2 => {
                    return Err(WireError::new(
                        "V1LayerParameter (field `layers`) models are not supported; \
                         upgrade the model with Caffe's upgrade_net_proto_binary",
                    ))
                }
                3 => net.input.push(r.read_string()?),
                4 => net.input_dim.push(r.read_varint()? as i64),
                8 => net.input_shape.push(BlobShape::decode(r.read_bytes()?)?),
                100 => net.layer.push(LayerParameter::decode(r.read_bytes()?)?),
                _ => r.skip(wt)?,
            }
        }
        Ok(net)
    }

    /// Parses a `prototxt` text-format document.
    pub fn from_prototxt(text: &str) -> Result<Self, TextError> {
        let root = TextMessage::parse(text)?;
        let mut net = NetParameter {
            name: root.string_or("name", "")?,
            input: root.strings("input")?,
            input_dim: root
                .uints("input_dim")?
                .into_iter()
                .map(|v| v as i64)
                .collect(),
            ..NetParameter::default()
        };
        for shape_msg in root.messages("input_shape")? {
            net.input_shape.push(BlobShape {
                dim: shape_msg.uints("dim")?,
            });
        }
        if root.message("layers")?.is_some() {
            return Err(TextError::schema(
                "V1 `layers` prototxt files are not supported; use the modern `layer` format",
            ));
        }
        for layer_msg in root.messages("layer")? {
            net.layer.push(LayerParameter::from_text(layer_msg)?);
        }
        net.check_blob_wiring()?;
        Ok(net)
    }

    /// Checks that every layer's `bottom` names a blob declared by an
    /// earlier layer's `top` or a top-level `input`.
    ///
    /// Caffe itself aborts on such nets at load time; historically this
    /// crate accepted them silently (the linear frontend never looked at
    /// blob names). Now that blob wiring *is* the topology, a dangling
    /// bottom is a typed error naming the offending layer
    /// ([`crate::text::TextErrorKind::UndeclaredBottom`]).
    fn check_blob_wiring(&self) -> Result<(), TextError> {
        let mut declared: std::collections::BTreeSet<&str> =
            self.input.iter().map(String::as_str).collect();
        for l in &self.layer {
            for b in &l.bottom {
                if !declared.contains(b.as_str()) {
                    return Err(TextError::undeclared_bottom(&l.name, b));
                }
            }
            for t in &l.top {
                declared.insert(t);
            }
        }
        Ok(())
    }

    /// Serialises to prototxt text (topology only — blobs never appear
    /// in text format, matching Caffe).
    pub fn to_prototxt(&self) -> String {
        let mut root = TextMessage::default();
        if !self.name.is_empty() {
            root.push_str("name", &self.name);
        }
        for i in &self.input {
            root.push_str("input", i);
        }
        for &d in &self.input_dim {
            root.push_num("input_dim", d as f64);
        }
        for s in &self.input_shape {
            let mut m = TextMessage::default();
            for &d in &s.dim {
                m.push_num("dim", d as f64);
            }
            root.push_message("input_shape", m);
        }
        for l in &self.layer {
            root.push_message("layer", l.to_text_message());
        }
        root.to_text()
    }
}

impl LayerParameter {
    fn to_text_message(&self) -> TextMessage {
        let mut m = TextMessage::default();
        m.push_str("name", &self.name);
        m.push_str("type", &self.type_);
        for b in &self.bottom {
            m.push_str("bottom", b);
        }
        for t in &self.top {
            m.push_str("top", t);
        }
        if let Some(p) = &self.convolution_param {
            let mut cp = TextMessage::default();
            cp.push_num("num_output", p.num_output as f64);
            if !p.bias_term {
                cp.push_ident("bias_term", "false");
            }
            if p.pad != 0 {
                cp.push_num("pad", p.pad as f64);
            }
            cp.push_num("kernel_size", p.kernel_size as f64);
            if p.stride != 1 {
                cp.push_num("stride", p.stride as f64);
            }
            m.push_message("convolution_param", cp);
        }
        if let Some(p) = &self.pooling_param {
            let mut pp = TextMessage::default();
            pp.push_ident(
                "pool",
                match p.pool {
                    PoolMethod::Max => "MAX",
                    PoolMethod::Ave => "AVE",
                },
            );
            pp.push_num("kernel_size", p.kernel_size as f64);
            if p.stride != 1 {
                pp.push_num("stride", p.stride as f64);
            }
            if p.pad != 0 {
                pp.push_num("pad", p.pad as f64);
            }
            m.push_message("pooling_param", pp);
        }
        if let Some(p) = &self.eltwise_param {
            let mut ep = TextMessage::default();
            ep.push_ident("operation", p.operation.caffe_name());
            m.push_message("eltwise_param", ep);
        }
        if let Some(p) = &self.concat_param {
            let mut cp = TextMessage::default();
            cp.push_num("axis", p.axis as f64);
            m.push_message("concat_param", cp);
        }
        if let Some(p) = &self.inner_product_param {
            let mut ip = TextMessage::default();
            ip.push_num("num_output", p.num_output as f64);
            if !p.bias_term {
                ip.push_ident("bias_term", "false");
            }
            m.push_message("inner_product_param", ip);
        }
        if self.relu_negative_slope != 0.0 {
            let mut rp = TextMessage::default();
            rp.push_num("negative_slope", self.relu_negative_slope as f64);
            m.push_message("relu_param", rp);
        }
        if let Some(p) = &self.input_param {
            let mut ipm = TextMessage::default();
            for s in &p.shape {
                let mut sm = TextMessage::default();
                for &d in &s.dim {
                    sm.push_num("dim", d as f64);
                }
                ipm.push_message("shape", sm);
            }
            m.push_message("input_param", ipm);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_tensor::linspace;

    fn sample_net() -> NetParameter {
        NetParameter {
            name: "LeNet".to_string(),
            input: vec![],
            input_dim: vec![],
            input_shape: vec![],
            layer: vec![
                LayerParameter {
                    name: "data".into(),
                    type_: "Input".into(),
                    top: vec!["data".into()],
                    input_param: Some(InputParameter {
                        shape: vec![BlobShape::nchw(64, 1, 28, 28)],
                    }),
                    ..LayerParameter::default()
                },
                LayerParameter {
                    name: "conv1".into(),
                    type_: "Convolution".into(),
                    bottom: vec!["data".into()],
                    top: vec!["conv1".into()],
                    convolution_param: Some(ConvolutionParameter {
                        num_output: 20,
                        kernel_size: 5,
                        ..ConvolutionParameter::default()
                    }),
                    blobs: vec![
                        BlobProto::from_tensor(&linspace(Shape::new(20, 1, 5, 5), 0.0, 0.01)),
                        BlobProto::from_tensor(&linspace(Shape::vector(20), 0.0, 0.1)),
                    ],
                    ..LayerParameter::default()
                },
                LayerParameter {
                    name: "pool1".into(),
                    type_: "Pooling".into(),
                    bottom: vec!["conv1".into()],
                    top: vec!["pool1".into()],
                    pooling_param: Some(PoolingParameter {
                        pool: PoolMethod::Max,
                        kernel_size: 2,
                        stride: 2,
                        pad: 0,
                    }),
                    ..LayerParameter::default()
                },
            ],
        }
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let net = sample_net();
        let bytes = net.encode();
        let back = NetParameter::decode(&bytes).unwrap();
        assert_eq!(back, net);
    }

    #[test]
    fn blob_tensor_roundtrip() {
        let t = linspace(Shape::new(2, 3, 4, 5), -1.0, 0.25);
        let blob = BlobProto::from_tensor(&t);
        assert_eq!(blob.into_tensor().unwrap(), t);
    }

    #[test]
    fn blob_legacy_dims_resolve() {
        let blob = BlobProto {
            num: Some(1),
            channels: Some(2),
            height: Some(3),
            width: Some(4),
            data: vec![0.0; 24],
            ..BlobProto::default()
        };
        assert_eq!(blob.resolved_shape().unwrap(), Shape::new(1, 2, 3, 4));
        assert!(blob.into_tensor().is_ok());
    }

    #[test]
    fn blob_data_length_mismatch_rejected() {
        let blob = BlobProto {
            shape: Some(BlobShape::nchw(1, 1, 2, 2)),
            data: vec![1.0; 3],
            ..BlobProto::default()
        };
        assert!(blob.into_tensor().is_err());
    }

    /// proto2 lets a repeated float arrive in any mix of packed runs and
    /// single `fixed32` values; the decoder appends them in wire order.
    #[test]
    fn blob_data_in_packed_and_unpacked_pieces_decodes_in_order() {
        let mut w = WireWriter::new();
        w.packed_floats(5, &[1.0, -2.5]);
        w.float(5, 3.25);
        w.packed_floats(5, &[4.0, f32::MIN_POSITIVE, -6.0]);
        w.float(5, 7.5);
        w.message(7, |inner| BlobShape { dim: vec![7] }.encode(inner));
        let t = BlobProto::decode(&w.into_bytes())
            .unwrap()
            .into_tensor()
            .unwrap();
        let want = [1.0f32, -2.5, 3.25, 4.0, f32::MIN_POSITIVE, -6.0, 7.5];
        assert_eq!(t.shape(), Shape::vector(7));
        assert_eq!(
            t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn packed_float_payload_of_odd_length_rejected() {
        let mut w = WireWriter::new();
        w.bytes(5, &[0u8; 6]);
        let err = BlobProto::decode(&w.into_bytes()).unwrap_err();
        assert!(err.message.contains("multiple of 4"), "{err}");
    }

    #[test]
    fn decoded_blob_with_short_data_rejected_by_into_tensor() {
        let mut w = WireWriter::new();
        w.packed_floats(5, &[1.0, 2.0, 3.0]);
        w.message(7, |inner| BlobShape::nchw(1, 1, 2, 2).encode(inner));
        let blob = BlobProto::decode(&w.into_bytes()).unwrap();
        let err = blob.into_tensor().unwrap_err();
        assert!(err.message.contains("expects 4 values, found 3"), "{err}");
    }

    #[test]
    fn blob_2d_shape_right_aligns() {
        // FC weight blobs are 2-D [out, in] in Caffe.
        let shape = BlobShape {
            dim: vec![500, 800],
        };
        assert_eq!(shape.to_shape().unwrap(), Shape::new(500, 800, 1, 1));
    }

    #[test]
    fn v1_layers_field_is_rejected_with_guidance() {
        let mut w = WireWriter::new();
        w.string(1, "old");
        w.message(2, |inner| inner.string(1, "legacy-layer"));
        let e = NetParameter::decode(&w.into_bytes()).unwrap_err();
        assert!(e.message.contains("upgrade"));
    }

    #[test]
    fn unknown_layer_fields_are_skipped() {
        // Encode a layer with an extra unknown field 200.
        let mut w = WireWriter::new();
        w.string(1, "net");
        w.message(100, |inner| {
            inner.string(1, "conv1");
            inner.string(2, "Convolution");
            inner.uint(200, 99);
        });
        let net = NetParameter::decode(&w.into_bytes()).unwrap();
        assert_eq!(net.layer[0].name, "conv1");
    }

    #[test]
    fn non_square_kernel_rejected() {
        let mut w = WireWriter::new();
        // kernel_size = [5, 3]
        w.packed_varints(4, &[5, 3]);
        let e = ConvolutionParameter::decode(&w.into_bytes()).unwrap_err();
        assert!(e.message.contains("non-square"));
    }

    #[test]
    fn stochastic_pooling_rejected() {
        let mut w = WireWriter::new();
        w.uint(1, 2); // STOCHASTIC
        assert!(PoolingParameter::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn conv_defaults_match_caffe() {
        let p = ConvolutionParameter::decode(&[]).unwrap();
        assert!(p.bias_term);
        assert_eq!(p.stride, 1);
        assert_eq!(p.pad, 0);
    }

    #[test]
    fn relu_negative_slope_roundtrip() {
        let mut layer = LayerParameter {
            name: "relu1".into(),
            type_: "ReLU".into(),
            relu_negative_slope: 0.1,
            ..LayerParameter::default()
        };
        let net = NetParameter {
            layer: vec![layer.clone()],
            ..NetParameter::default()
        };
        let back = NetParameter::decode(&net.encode()).unwrap();
        assert!((back.layer[0].relu_negative_slope - 0.1).abs() < 1e-7);
        // Zero slope is the default and encodes to nothing.
        layer.relu_negative_slope = 0.0;
        let net2 = NetParameter {
            layer: vec![layer],
            ..NetParameter::default()
        };
        let bytes = net2.encode();
        let back2 = NetParameter::decode(&bytes).unwrap();
        assert_eq!(back2.layer[0].relu_negative_slope, 0.0);
    }

    #[test]
    fn eltwise_and_concat_params_roundtrip_binary() {
        let net = NetParameter {
            name: "merge".into(),
            layer: vec![
                LayerParameter {
                    name: "join".into(),
                    type_: "Eltwise".into(),
                    bottom: vec!["a".into(), "b".into()],
                    top: vec!["join".into()],
                    eltwise_param: Some(EltwiseParameter {
                        operation: EltwiseOperation::Max,
                    }),
                    ..LayerParameter::default()
                },
                LayerParameter {
                    name: "cat".into(),
                    type_: "Concat".into(),
                    bottom: vec!["a".into(), "join".into()],
                    top: vec!["cat".into()],
                    concat_param: Some(ConcatParameter::default()),
                    ..LayerParameter::default()
                },
            ],
            ..NetParameter::default()
        };
        let back = NetParameter::decode(&net.encode()).unwrap();
        assert_eq!(back, net);
    }

    #[test]
    fn eltwise_coefficients_rejected() {
        let mut w = WireWriter::new();
        w.float(2, 0.5); // coeff
        assert!(EltwiseParameter::decode(&w.into_bytes())
            .unwrap_err()
            .message
            .contains("coefficients"));
    }

    #[test]
    fn undeclared_bottom_is_a_typed_error() {
        use crate::text::TextErrorKind;
        // `conv1` reads blob "datum", but the input layer declares "data".
        let doc = r#"
name: "broken"
layer {
  name: "data"
  type: "Input"
  top: "data"
  input_param { shape: { dim: 1 dim: 1 dim: 8 dim: 8 } }
}
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "datum"
  top: "conv1"
  convolution_param { num_output: 2 kernel_size: 3 }
}
"#;
        let err = NetParameter::from_prototxt(doc).unwrap_err();
        assert_eq!(err.kind, TextErrorKind::UndeclaredBottom);
        assert!(err.message.contains("conv1"), "{}", err.message);
        assert!(err.message.contains("datum"), "{}", err.message);
    }

    #[test]
    fn top_level_inputs_and_in_place_tops_satisfy_wiring() {
        // Legacy `input:` declaration plus an in-place layer
        // (bottom == top) both count as declared blobs.
        let doc = r#"
name: "legacy"
input: "data"
input_dim: 1 input_dim: 1 input_dim: 8 input_dim: 8
layer {
  name: "ip"
  type: "InnerProduct"
  bottom: "data"
  top: "ip"
  inner_product_param { num_output: 4 }
}
layer {
  name: "relu"
  type: "ReLU"
  bottom: "ip"
  top: "ip"
}
layer {
  name: "ip2"
  type: "InnerProduct"
  bottom: "ip"
  top: "ip2"
  inner_product_param { num_output: 2 }
}
"#;
        assert!(NetParameter::from_prototxt(doc).is_ok());
    }
}

#[cfg(test)]
mod prototxt_export_tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn prototxt_roundtrip_preserves_topology() {
        let doc = r#"
name: "LeNet"
layer {
  name: "data"
  type: "Input"
  top: "data"
  input_param { shape: { dim: 64 dim: 1 dim: 28 dim: 28 } }
}
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param { num_output: 20 kernel_size: 5 }
}
layer {
  name: "pool1"
  type: "Pooling"
  bottom: "conv1"
  top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
"#;
        let net = NetParameter::from_prototxt(doc).unwrap();
        let text = net.to_prototxt();
        let back = NetParameter::from_prototxt(&text).unwrap();
        assert_eq!(back, net);
    }

    #[test]
    fn exported_prototxt_is_human_readable() {
        let net = NetParameter::from_prototxt(
            "name: \"x\"\nlayer { name: \"ip\" type: \"InnerProduct\" inner_product_param { num_output: 10 bias_term: false } }",
        )
        .unwrap();
        let text = net.to_prototxt();
        assert!(text.contains("name: \"x\""));
        assert!(text.contains("inner_product_param {"));
        assert!(text.contains("bias_term: false"));
        assert!(text.contains("  num_output: 10"));
    }

    #[test]
    fn legacy_inputs_export() {
        let net = NetParameter {
            name: "legacy".into(),
            input: vec!["data".into()],
            input_dim: vec![1, 3, 8, 8],
            ..NetParameter::default()
        };
        let text = net.to_prototxt();
        let back = NetParameter::from_prototxt(&text).unwrap();
        assert_eq!(back.input, net.input);
        assert_eq!(back.input_dim, net.input_dim);
    }
}
