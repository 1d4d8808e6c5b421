//! A container tying machines and the network together.

use sps_sim::SimTime;

use crate::domain::FaultTopology;
use crate::machine::{Machine, MachineId};
use crate::network::{Network, NetworkConfig};

/// A set of machines connected by one switched network. `T` is the
/// machines' task tag (see [`Machine`]).
///
/// ```
/// use sps_cluster::{Cluster, NetworkConfig};
/// use sps_sim::SimTime;
///
/// let mut cluster = Cluster::new(NetworkConfig::default());
/// let a = cluster.add_machine();
/// let b = cluster.add_machine();
/// cluster.machine_mut(a).submit(SimTime::ZERO, 0.001, 0);
/// assert_ne!(a, b);
/// assert_eq!(cluster.len(), 2);
/// ```
#[derive(Debug)]
pub struct Cluster<T = u64> {
    machines: Vec<Machine<T>>,
    network: Network,
    topology: FaultTopology,
}

impl<T: Copy> Cluster<T> {
    /// Creates an empty cluster with the given network configuration.
    pub fn new(network: NetworkConfig) -> Self {
        Cluster {
            machines: Vec::new(),
            network: Network::new(network),
            topology: FaultTopology::flat(0),
        }
    }

    /// Adds a machine and returns its id. The machine starts in its own
    /// (flat) fault domain until [`set_topology`](Self::set_topology)
    /// installs a real one.
    pub fn add_machine(&mut self) -> MachineId {
        let id = MachineId(self.machines.len() as u32);
        self.machines.push(Machine::new(id));
        self.topology.push_flat_machine();
        id
    }

    /// Adds `n` machines and returns their ids.
    pub fn add_machines(&mut self, n: usize) -> Vec<MachineId> {
        (0..n).map(|_| self.add_machine()).collect()
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// `true` if the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// A shared view of one machine.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this cluster.
    pub fn machine(&self, id: MachineId) -> &Machine<T> {
        &self.machines[id.0 as usize]
    }

    /// An exclusive view of one machine.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this cluster.
    pub fn machine_mut(&mut self, id: MachineId) -> &mut Machine<T> {
        &mut self.machines[id.0 as usize]
    }

    /// All machines, in id order.
    pub fn machines(&self) -> &[Machine<T>] {
        &self.machines
    }

    /// The rack/switch fault topology.
    pub fn topology(&self) -> &FaultTopology {
        &self.topology
    }

    /// Installs a fault topology covering every machine.
    ///
    /// # Panics
    ///
    /// Panics when the topology's machine count differs from the
    /// cluster's.
    pub fn set_topology(&mut self, topology: FaultTopology) {
        assert_eq!(
            topology.machines(),
            self.machines.len(),
            "topology must cover exactly the cluster's machines"
        );
        self.topology = topology;
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The network, exclusively.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Advances every machine to `now` (e.g., before a global snapshot).
    pub fn advance_all(&mut self, now: SimTime) {
        for m in &mut self.machines {
            m.advance(now);
        }
    }

    /// Iterates over machine ids.
    pub fn ids(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.machines.len() as u32).map(MachineId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_sim::SimTime;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut c: Cluster = Cluster::new(NetworkConfig::default());
        let ids = c.add_machines(5);
        assert_eq!(ids, (0..5).map(MachineId).collect::<Vec<_>>());
        assert_eq!(c.ids().collect::<Vec<_>>(), ids);
        assert_eq!(c.machine(MachineId(3)).id(), MachineId(3));
    }

    #[test]
    fn advance_all_touches_every_machine() {
        let mut c = Cluster::new(NetworkConfig::default());
        c.add_machines(3);
        for id in c.ids().collect::<Vec<_>>() {
            c.machine_mut(id).submit(SimTime::ZERO, 10.0, 0);
        }
        c.advance_all(SimTime::from_secs(1));
        for m in c.machines() {
            assert!((m.work_done() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_machine_panics() {
        let c: Cluster = Cluster::new(NetworkConfig::default());
        let _ = c.machine(MachineId(0));
    }
}
