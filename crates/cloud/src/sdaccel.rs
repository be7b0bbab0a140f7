//! SDAccel artifact pipeline: kernel XML, `.xo` packaging, XOCC linking
//! and default host code (paper steps 6–7).

use crate::CloudError;
use condor_fpga::board;
use std::sync::Arc;

/// Generates the kernel description XML (paper step 6a): "this file
/// contains basic information of the kernel such as the name and vendor
/// as well as the communication interface with the host via an AXI4
/// master port and an AXI4-Lite slave port."
pub fn kernel_xml(kernel_name: &str, vendor: &str) -> String {
    format!(
        r#"<?xml version="1.0" encoding="UTF-8"?>
<root versionMajor="1" versionMinor="6">
  <kernel name="{kernel_name}" language="ip" vlnv="{vendor}:condor:{kernel_name}:1.0"
          attributes="" preferredWorkGroupSizeMultiple="0" workGroupSize="1">
    <ports>
      <port name="M_AXI_GMEM" mode="master" range="0xFFFFFFFF" dataWidth="512" portType="addressable" base="0x0"/>
      <port name="S_AXI_CONTROL" mode="slave" range="0x1000" dataWidth="32" portType="addressable" base="0x0"/>
    </ports>
    <args>
      <arg name="input" addressQualifier="1" id="0" port="M_AXI_GMEM" size="0x8" offset="0x10" hostOffset="0x0" hostSize="0x8" type="float*"/>
      <arg name="weights" addressQualifier="1" id="1" port="M_AXI_GMEM" size="0x8" offset="0x1C" hostOffset="0x0" hostSize="0x8" type="float*"/>
      <arg name="output" addressQualifier="1" id="2" port="M_AXI_GMEM" size="0x8" offset="0x28" hostOffset="0x0" hostSize="0x8" type="float*"/>
    </args>
  </kernel>
</root>
"#
    )
}

/// A Xilinx Object file (paper step 6b): "the final step is to package
/// the IP of the accelerator and the kernel XML together into a Xilinx
/// Object file (.xo), so it can be processed by the SDAccel compiler."
#[derive(Clone, Debug, PartialEq)]
pub struct XoFile {
    /// Kernel name carried in the XML.
    pub kernel_name: String,
    /// The kernel description XML.
    pub xml: String,
    /// Opaque packaged IP payload.
    pub payload: Arc<[u8]>,
}

impl XoFile {
    /// Packages an accelerator IP payload with its kernel XML.
    pub fn package(
        kernel_name: &str,
        vendor: &str,
        ip_payload: Arc<[u8]>,
    ) -> Result<Self, CloudError> {
        if kernel_name.is_empty() {
            return Err(CloudError::new("sdaccel", "kernel name must not be empty"));
        }
        if ip_payload.is_empty() {
            return Err(CloudError::new("sdaccel", "IP payload must not be empty"));
        }
        Ok(XoFile {
            kernel_name: kernel_name.to_string(),
            xml: kernel_xml(kernel_name, vendor),
            payload: ip_payload,
        })
    }
}

/// A kernel binary (paper step 7): "The xclbin file is a binary library
/// of kernel compute units … generated using XOCC, that creates custom
/// logic based on the characteristics of the selected target device."
#[derive(Clone, Debug, PartialEq)]
pub struct Xclbin {
    /// Kernel name.
    pub kernel_name: String,
    /// Board the binary targets.
    pub board: String,
    /// Device part on that board.
    pub part: String,
    /// The binary payload (header + packaged IP).
    pub bytes: Arc<[u8]>,
}

/// Magic prefix identifying simulated xclbin payloads.
pub const XCLBIN_MAGIC: &[u8; 8] = b"xclbin2\0";

/// Links a `.xo` into an `xclbin` for a target board (the XOCC step).
pub fn xocc_link(xo: &XoFile, board_name: &str) -> Result<Xclbin, CloudError> {
    let b = board(board_name).ok_or_else(|| {
        CloudError::new(
            "sdaccel",
            format!("unknown target board '{board_name}' (xocc --platform)"),
        )
    })?;
    let mut bytes = Vec::with_capacity(XCLBIN_MAGIC.len() + xo.payload.len());
    bytes.extend_from_slice(XCLBIN_MAGIC);
    bytes.extend_from_slice(b.device.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&xo.payload);
    Ok(Xclbin {
        kernel_name: xo.kernel_name.clone(),
        board: b.name.to_string(),
        part: b.device.to_string(),
        bytes: bytes.into(),
    })
}

impl Xclbin {
    /// Parses the device part out of a simulated xclbin payload.
    pub fn parse_part(bytes: &[u8]) -> Result<String, CloudError> {
        if !bytes.starts_with(XCLBIN_MAGIC) {
            return Err(CloudError::new("sdaccel", "not an xclbin payload"));
        }
        let rest = &bytes[XCLBIN_MAGIC.len()..];
        let end = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| CloudError::new("sdaccel", "corrupt xclbin header"))?;
        String::from_utf8(rest[..end].to_vec())
            .map_err(|_| CloudError::new("sdaccel", "corrupt xclbin part name"))
    }
}

/// Generates the default OpenCL host code (paper step 7): "We also
/// generate and provide the user with a default host code to run and
/// test the performance of the resulting accelerator."
pub fn host_code(kernel_name: &str, batch_hint: usize) -> String {
    format!(
        r#"// Auto-generated by Condor: default SDAccel host code.
// Edit freely — this is a starting point, not a contract.
#include <CL/cl2.hpp>
#include <fstream>
#include <vector>

int main(int argc, char **argv) {{
    const char *xclbin_path = argc > 1 ? argv[1] : "{kernel_name}.xclbin";
    const size_t batch = argc > 2 ? atoi(argv[2]) : {batch_hint};

    // 1. Platform / device / context.
    std::vector<cl::Platform> platforms;
    cl::Platform::get(&platforms);
    cl::Device device = /* first Xilinx device */ {{}};
    cl::Context context(device);
    cl::CommandQueue q(context, device, CL_QUEUE_PROFILING_ENABLE);

    // 2. Load the kernel binary.
    std::ifstream bin(xclbin_path, std::ios::binary);
    std::vector<unsigned char> binary(
        (std::istreambuf_iterator<char>(bin)), std::istreambuf_iterator<char>());
    cl::Program program(context, {{device}}, {{{{binary.data(), binary.size()}}}});
    cl::Kernel kernel(program, "{kernel_name}");

    // 3. Buffers: input batch, weights, output batch.
    // (sizes filled in by the framework for the concrete network)
    // 4. Enqueue, profile, report mean time per image vs batch size.
    for (size_t i = 0; i < batch; i++) {{
        q.enqueueTask(kernel);
    }}
    q.finish();
    return 0;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn xo() -> XoFile {
        XoFile::package("condor_lenet", "polimi.it", b"IPIPIP".as_slice().into()).unwrap()
    }

    #[test]
    fn xml_contains_required_interfaces() {
        let xml = kernel_xml("condor_lenet", "polimi.it");
        assert!(xml.contains(r#"<kernel name="condor_lenet""#));
        assert!(xml.contains(r#"mode="master""#)); // AXI4 master
        assert!(xml.contains(r#"mode="slave""#)); // AXI4-Lite slave
        assert!(xml.contains("polimi.it:condor:condor_lenet:1.0"));
    }

    #[test]
    fn xo_packaging_validates_inputs() {
        assert!(XoFile::package("", "v", b"x".as_slice().into()).is_err());
        assert!(XoFile::package("k", "v", Vec::new().into()).is_err());
        let xo = xo();
        assert_eq!(xo.kernel_name, "condor_lenet");
        assert!(xo.xml.contains("condor_lenet"));
    }

    #[test]
    fn xocc_links_for_known_board() {
        let xclbin = xocc_link(&xo(), "aws-f1").unwrap();
        assert_eq!(xclbin.part, "xcvu9p");
        assert!(xclbin.bytes.starts_with(XCLBIN_MAGIC));
        assert_eq!(Xclbin::parse_part(&xclbin.bytes).unwrap(), "xcvu9p");
    }

    #[test]
    fn xocc_rejects_unknown_board() {
        let err = xocc_link(&xo(), "de10-nano").unwrap_err();
        assert_eq!(err.service, "sdaccel");
        assert!(err.message.contains("unknown target board"));
    }

    #[test]
    fn parse_part_rejects_garbage() {
        assert!(Xclbin::parse_part(b"ELF....").is_err());
        assert!(Xclbin::parse_part(b"xclbin2\0nonulterminator").is_err());
    }

    #[test]
    fn host_code_references_kernel_and_batch() {
        let code = host_code("condor_tc1", 32);
        assert!(code.contains(r#"cl::Kernel kernel(program, "condor_tc1")"#));
        assert!(code.contains(": 32;"));
        assert!(code.contains("mean time per image"));
    }

    #[test]
    fn different_boards_embed_different_parts() {
        let a = xocc_link(&xo(), "aws-f1").unwrap();
        let b = xocc_link(&xo(), "pynq-z1").unwrap();
        assert_ne!(a.part, b.part);
        assert_ne!(a.bytes, b.bytes);
    }
}
