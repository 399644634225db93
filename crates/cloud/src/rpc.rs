//! The cloud controller as a domain server: its side of the REST contract
//! (see `ovnes_api::domain` for everything around the command `match`).
//! [`CloudCommand::DeployEpc`] is materialized here into a sized vEPC Heat
//! template.

use crate::{epc_template, CloudController, CloudControllerState, EpcSizing};
use ovnes_api::{CloudCommand, CloudReply, DomainController};
use ovnes_model::SliceClass;
use ovnes_sim::MetricRegistry;

impl DomainController for CloudController {
    const DOMAIN: &'static str = "cloud";
    type Command = CloudCommand;
    type Reply = CloudReply;
    type State = CloudControllerState;

    fn apply(&mut self, command: CloudCommand) -> Result<CloudReply, String> {
        match command {
            CloudCommand::DeployEpc {
                slice,
                dc,
                throughput,
                class,
            } => {
                let class = SliceClass::ALL
                    .into_iter()
                    .find(|c| c.label() == class)
                    .ok_or_else(|| format!("unknown slice class {class:?}"))?;
                let demand = class.compute_demand(throughput);
                let template = epc_template(slice, &demand, &EpcSizing::default());
                self.deploy(slice, dc, &template)
                    .map(|stack| CloudReply::Deployed {
                        deploy_time_us: stack.deploy_time.as_micros(),
                        vms: stack.vms.len(),
                    })
            }
            CloudCommand::Delete { slice } => {
                self.delete_for_slice(slice).map(|_| CloudReply::Done)
            }
        }
        .map_err(|e| e.to_string())
    }

    fn metrics(&self) -> &MetricRegistry {
        CloudController::metrics(self)
    }

    fn export_state(&self) -> CloudControllerState {
        CloudController::export_state(self)
    }

    fn from_state(state: &CloudControllerState) -> CloudController {
        CloudController::from_state(state)
    }
}

#[cfg(test)]
mod tests {
    use crate::host::HostCapacity;
    use crate::{CloudController, DataCenter, DcKind, PlacementStrategy};
    use ovnes_api::{encode, serve, CloudCommand, SocketBus, Status};
    use ovnes_model::{DcId, DiskGb, MemMb, RateMbps, SliceId, VCpus};

    #[test]
    fn unknown_class_is_rejected() {
        let host = HostCapacity {
            vcpus: VCpus::new(32),
            mem: MemMb::new(65_536),
            disk: DiskGb::new(500),
        };
        let controller = CloudController::new(vec![DataCenter::homogeneous(
            DcId::new(1),
            DcKind::Core,
            4,
            host,
            PlacementStrategy::WorstFit,
        )]);
        let server = serve(controller).unwrap();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        let resp = bus
            .call(
                "cloud/command",
                encode(&CloudCommand::DeployEpc {
                    slice: SliceId::new(2),
                    dc: DcId::new(1),
                    throughput: RateMbps::new(10.0),
                    class: "quantum".into(),
                })
                .unwrap(),
            )
            .unwrap();
        assert_eq!(resp.status, Status::Rejected);
    }
}
