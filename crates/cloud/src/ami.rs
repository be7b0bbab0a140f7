//! FPGA Developer AMI environment model.
//!
//! Paper Section 3.1.3: AFI creation "requires special licenses and
//! additional setup which may not be accessible to machine learning
//! practitioners. Therefore, for usability and accessibility reasons we
//! have decided to require users to run the Condor framework inside an
//! FPGA Developer Amazon Machine Image, which provides the aforementioned
//! licenses at no additional cost." The framework checks this environment
//! before starting cloud deployment; on-premise deployment has no such
//! requirement.

use crate::CloudError;

/// The execution environment the framework runs in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Environment {
    /// True when running inside the FPGA Developer AMI.
    pub fpga_developer_ami: bool,
    /// True when a local Vivado/SDx licence is configured (the
    /// on-premise AFI-creation path the paper mentions but does not
    /// investigate).
    pub on_premise_licenses: bool,
}

impl Environment {
    /// The FPGA Developer AMI: licences available, nothing to configure.
    pub fn developer_ami() -> Self {
        Environment {
            fpga_developer_ami: true,
            on_premise_licenses: false,
        }
    }

    /// A plain workstation without Xilinx licences.
    pub fn workstation() -> Self {
        Environment {
            fpga_developer_ami: false,
            on_premise_licenses: false,
        }
    }

    /// Checks that cloud (AFI) deployment is possible from here.
    pub fn check_cloud_deploy(&self) -> Result<(), CloudError> {
        if self.fpga_developer_ami || self.on_premise_licenses {
            Ok(())
        } else {
            Err(CloudError::new(
                "ami",
                "AFI creation requires running inside the FPGA Developer AMI \
                 (or an on-premise Xilinx licence); see the deployment guide",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn developer_ami_can_deploy_to_cloud() {
        assert!(Environment::developer_ami().check_cloud_deploy().is_ok());
    }

    #[test]
    fn plain_workstation_cannot() {
        let err = Environment::workstation().check_cloud_deploy().unwrap_err();
        assert_eq!(err.service, "ami");
        assert!(err.message.contains("FPGA Developer AMI"));
    }

    #[test]
    fn licensed_workstation_takes_the_tweaked_path() {
        // A workstation with full on-premise licences (the "some
        // tweaking" path).
        let licensed = Environment {
            fpga_developer_ami: false,
            on_premise_licenses: true,
        };
        assert!(licensed.check_cloud_deploy().is_ok());
    }
}
