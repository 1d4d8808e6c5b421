//! One PE copy's slot: the deployed instance (if any), the machine it runs
//! on, its ack backlog, and its restart epoch.
//!
//! A CPU task carries the epoch of the slot it was submitted from; when it
//! completes under a different epoch the old copy's result is thrown away.
//! The epoch moves in exactly three ways, each a method here: a copy is
//! deployed into the slot ([`Slot::deploy`]), its state is replaced in
//! place ([`Slot::restart`]), or it is removed ([`Slot::retire`]).

use sps_cluster::MachineId;
use sps_engine::PeInstance;

/// The record of one `(pe, replica)` copy, indexed `pe * 2 + replica`.
#[derive(Debug)]
pub(crate) struct Slot {
    copy: Option<PeInstance>,
    machine: MachineId,
    /// Elements processed since the last batched acknowledgment (copies
    /// that do not acknowledge through checkpoints). Carries across a
    /// redeploy into the same slot.
    pub ack_backlog: u64,
    epoch: u32,
}

impl Slot {
    /// A slot with no copy deployed.
    pub fn empty() -> Slot {
        Slot {
            copy: None,
            machine: MachineId(0),
            ack_backlog: 0,
            epoch: 0,
        }
    }

    /// The deployed copy.
    pub fn copy(&self) -> Option<&PeInstance> {
        self.copy.as_ref()
    }

    /// The deployed copy, exclusively.
    pub fn copy_mut(&mut self) -> Option<&mut PeInstance> {
        self.copy.as_mut()
    }

    /// The machine hosting the slot's copy — or, once it is retired, the
    /// machine that last hosted it.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The restart epoch CPU work is submitted under.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Puts `copy` into the slot on `machine`, replacing any copy there.
    pub fn deploy(&mut self, copy: PeInstance, machine: MachineId) {
        self.copy = Some(copy);
        self.machine = machine;
        self.bump();
    }

    /// The copy's state was replaced in place: its in-flight work is void.
    pub fn restart(&mut self) {
        self.bump();
    }

    /// Removes the copy; the machine stays, for deliveries still in flight.
    pub fn retire(&mut self) {
        self.copy = None;
        self.bump();
    }

    fn bump(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::{InstanceId, OperatorSpec, PeId, Replica};

    fn copy() -> PeInstance {
        let iid = InstanceId {
            pe: PeId(0),
            replica: Replica::Primary,
        };
        PeInstance::new(iid, OperatorSpec::synthetic_default(), 1, &[])
    }

    #[test]
    fn each_move_bumps_the_epoch_once_and_keeps_what_it_must() {
        let mut slot = Slot::empty();
        slot.ack_backlog = 7;
        let e0 = slot.epoch();

        slot.deploy(copy(), MachineId(3));
        assert_eq!(slot.epoch(), e0.wrapping_add(1));
        assert!(slot.copy().is_some());
        assert_eq!(slot.machine(), MachineId(3));
        assert_eq!(slot.ack_backlog, 7, "deploy keeps the ack backlog");

        slot.restart();
        assert_eq!(slot.epoch(), e0.wrapping_add(2));
        assert!(slot.copy().is_some());

        slot.retire();
        assert_eq!(slot.epoch(), e0.wrapping_add(3));
        assert!(slot.copy().is_none());
        assert_eq!(slot.machine(), MachineId(3), "retire keeps the machine");

        slot.deploy(copy(), MachineId(5));
        assert_eq!(slot.epoch(), e0.wrapping_add(4));
        assert_eq!(slot.machine(), MachineId(5));
        assert_eq!(slot.ack_backlog, 7);
    }

    #[test]
    fn the_epoch_wraps() {
        let mut slot = Slot::empty();
        slot.epoch = u32::MAX;
        slot.restart();
        assert_eq!(slot.epoch(), 0);
    }
}
