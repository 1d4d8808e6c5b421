//! A container tying machines and the network together, with the state
//! the substrate's faults leave behind: the installed chaos plan and the
//! pool of spare machines. Which switches are dark is the network's.

use crate::chaos::{ChaosAction, ChaosPlan, ChaosPlanError};
use crate::domain::{FaultTopology, SwitchId};
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
    /// Machines held back to host replacement standbys.
    spares: Vec<MachineId>,
    /// The installed chaos plan's actions, in step order.
    chaos: Vec<ChaosAction>,
}

impl<T: Copy> Cluster<T> {
    /// Creates an empty cluster with the given network configuration.
    pub fn new(network: NetworkConfig) -> Self {
        Cluster {
            machines: Vec::new(),
            network: Network::new(network),
            topology: FaultTopology::flat(0),
            spares: Vec::new(),
            chaos: Vec::new(),
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

    /// Iterates over machine ids.
    pub fn ids(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.machines.len() as u32).map(MachineId)
    }

    /// Sets the pool of spare machines, in the order
    /// [`take_safe_spare`](Self::take_safe_spare) scans back to front.
    pub fn set_spares(&mut self, spares: Vec<MachineId>) {
        self.spares = spares;
    }

    /// Removes and returns the best spare for a new standby: up, in a
    /// fault-free domain, and (when `disjoint_from` is given) domain-
    /// disjoint from that machine. Scans from the *back* of the pool, so
    /// with a flat topology and healthy spares it picks the last one.
    pub fn take_safe_spare(&mut self, disjoint_from: Option<MachineId>) -> Option<MachineId> {
        let pos = self.spares.iter().rposition(|&s| {
            self.machine(s).is_up()
                && !self.domain_has_active_fault(s)
                && disjoint_from.is_none_or(|p| self.topology.domain_disjoint(s, p))
        })?;
        Some(self.spares.remove(pos))
    }

    /// `true` when `m`'s fault domain has an active correlated fault: its
    /// switch is dark, or any machine in its rack is down. Under the flat
    /// topology this reduces to "`m` itself is down or its switch dark".
    pub fn domain_has_active_fault(&self, m: MachineId) -> bool {
        let topo = &self.topology;
        self.network.dark_switch(m).is_some()
            || topo
                .machines_in_rack(topo.rack_of(m))
                .any(|peer| !self.machine(peer).is_up())
    }

    /// Cuts (or heals) `switch` ([`Network::set_switch_partitioned`]): a
    /// pair another cause cuts stays cut through the heal.
    pub fn set_switch_partitioned(&mut self, switch: SwitchId, on: bool) {
        let behind = self.topology.machines_behind_switch(switch);
        self.network.set_switch_partitioned(switch, behind, on);
    }

    /// Installs a chaos plan whose steps the owner will apply with
    /// [`apply_chaos`](Self::apply_chaos), and reseeds the network's fault
    /// draws with `seed`.
    ///
    /// # Errors
    ///
    /// A step naming a machine, rack or switch outside the topology, or
    /// installing an invalid fault profile; then nothing is installed.
    pub fn install_chaos(&mut self, plan: &ChaosPlan, seed: u64) -> Result<(), ChaosPlanError> {
        plan.check(&self.topology)?;
        self.network.reseed_chaos(seed);
        self.chaos = plan.steps().iter().map(|s| s.action).collect();
        Ok(())
    }

    /// Applies step `step` of the installed chaos plan (`None` past its
    /// end): link, partition and switch actions take effect here. Returns
    /// the action and the live machines, in id order, the owner must take
    /// down: a [`FailStop`](ChaosAction::FailStop)'s machine or a
    /// [`FailDomain`](ChaosAction::FailDomain)'s rack.
    pub fn apply_chaos(&mut self, step: usize) -> Option<(ChaosAction, Vec<MachineId>)> {
        let action = *self.chaos.get(step)?;
        let net = &mut self.network;
        let mut down = Vec::new();
        match action {
            ChaosAction::LinkFaults { src, dst, profile } => net.set_link_faults(src, dst, profile),
            ChaosAction::ClearLinkFaults { src, dst } => net.clear_link_faults(src, dst),
            ChaosAction::DefaultFaults { profile } => net.set_default_faults(profile),
            ChaosAction::Partition { a, b } => net.set_partitioned(a, b, true),
            ChaosAction::Heal { a, b } => net.set_partitioned(a, b, false),
            ChaosAction::FailStop { machine } => down.push(machine),
            ChaosAction::FailDomain { rack } => down.extend(self.topology.machines_in_rack(rack)),
            ChaosAction::PartitionSwitch { switch } => self.set_switch_partitioned(switch, true),
            ChaosAction::HealSwitch { switch } => self.set_switch_partitioned(switch, false),
        }
        down.retain(|&m| self.machine(m).is_up());
        Some((action, down))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosTarget;
    use crate::domain::DomainId;
    use sps_sim::SimTime;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut c: Cluster = Cluster::new(NetworkConfig::default());
        let ids = c.add_machines(5);
        assert_eq!(ids, (0..5).map(MachineId).collect::<Vec<_>>());
        assert_eq!(c.ids().collect::<Vec<_>>(), ids);
        assert_eq!(c.machine(MachineId(3)).id(), MachineId(3));
    }

    /// A 16-machine grid: racks of 2, 2 racks per switch (4 switches).
    fn grid() -> Cluster {
        let mut c = Cluster::new(NetworkConfig::default());
        c.add_machines(16);
        c.set_topology(FaultTopology::grid(16, 2, 2));
        c
    }

    #[test]
    fn take_safe_spare_picks_the_back_most_safe_spare() {
        let mut c = grid();
        c.set_spares(vec![
            MachineId(4),
            MachineId(9),
            MachineId(12),
            MachineId(14),
        ]);
        c.machine_mut(MachineId(14)).fail(SimTime::ZERO); // down
        c.machine_mut(MachineId(13)).fail(SimTime::ZERO); // m12's rack faulted
                                                          // m9 shares m8's rack: not disjoint from it.
        assert_eq!(c.take_safe_spare(Some(MachineId(8))), Some(MachineId(4)));
        assert_eq!(c.take_safe_spare(None), Some(MachineId(9)));
        assert_eq!(c.take_safe_spare(None), None, "m12 and m14 stay unsafe");
        c.set_spares(vec![MachineId(0), MachineId(2)]);
        assert_eq!(c.take_safe_spare(None), Some(MachineId(2)));
    }

    #[test]
    fn a_switch_partition_then_a_heal_restores_every_pair() {
        let mut c = grid();
        let behind = |m: u32| c.topology().switch_of(MachineId(m)) == SwitchId(1);
        let crossing: Vec<(u32, u32)> = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .filter(|&(a, b)| behind(a) != behind(b))
            .collect();
        assert_eq!(crossing.len(), 2 * 4 * 12);
        c.set_switch_partitioned(SwitchId(1), true);
        assert!(c.domain_has_active_fault(MachineId(5)));
        assert!(!c.domain_has_active_fault(MachineId(3)));
        for a in 0..16 {
            for b in 0..16 {
                let cut = c.network().is_partitioned(MachineId(a), MachineId(b));
                assert_eq!(cut, crossing.contains(&(a, b)), "m{a} <-> m{b}");
            }
        }
        c.set_switch_partitioned(SwitchId(1), false);
        assert!(!c.domain_has_active_fault(MachineId(5)));
        for a in 0..16 {
            for b in 0..16 {
                assert!(!c.network().is_partitioned(MachineId(a), MachineId(b)));
            }
        }
    }

    #[test]
    fn a_switch_heal_keeps_an_open_pair_partition() {
        let mut c = grid();
        let (a, b) = (MachineId(0), MachineId(5));
        c.network_mut().set_partitioned(a, b, true);
        c.set_switch_partitioned(SwitchId(1), true);
        c.set_switch_partitioned(SwitchId(1), false);
        assert!(
            c.network().is_partitioned(a, b),
            "the pair's window is open"
        );
        assert!(!c.network().is_partitioned(a, MachineId(4)));
    }

    #[test]
    fn a_pair_heal_inside_a_dark_switch_leaves_the_pair_cut() {
        let mut c = grid();
        let (a, b) = (MachineId(0), MachineId(5));
        c.set_switch_partitioned(SwitchId(1), true);
        c.network_mut().set_partitioned(a, b, false);
        assert!(c.network().is_partitioned(a, b), "s1 is still dark");
        assert!(c.domain_has_active_fault(b));
    }

    #[test]
    fn healing_one_of_two_dark_switches_leaves_the_pairs_between_them_cut() {
        let mut c = grid();
        c.set_switch_partitioned(SwitchId(1), true);
        c.set_switch_partitioned(SwitchId(2), true);
        c.set_switch_partitioned(SwitchId(1), false);
        let (m5, m9) = (MachineId(5), MachineId(9));
        assert!(c.network().is_partitioned(m5, m9), "s2 is still dark");
        assert!(!c.network().is_partitioned(m5, MachineId(0)));
        assert!(!c.network().is_partitioned(m9, MachineId(10)));
        assert!(!c.domain_has_active_fault(m5) && c.domain_has_active_fault(m9));
    }

    #[test]
    fn a_domain_fault_is_a_down_rack_mate_or_a_dark_switch() {
        let mut flat: Cluster = Cluster::new(NetworkConfig::default());
        flat.add_machines(3);
        flat.machine_mut(MachineId(1)).fail(SimTime::ZERO);
        let faulted: Vec<bool> = flat
            .ids()
            .map(|m| flat.domain_has_active_fault(m))
            .collect();
        assert_eq!(
            faulted,
            [false, true, false],
            "flat: only the machine itself"
        );

        let mut c = grid();
        c.machine_mut(MachineId(6)).fail(SimTime::ZERO);
        let faulted: Vec<u32> = c
            .ids()
            .filter(|&m| c.domain_has_active_fault(m))
            .map(|m| m.0)
            .collect();
        assert_eq!(
            faulted,
            [6, 7],
            "the rack, not the switch, shares a fail-stop"
        );
        c.set_switch_partitioned(SwitchId(0), true);
        let faulted: Vec<u32> = c
            .ids()
            .filter(|&m| c.domain_has_active_fault(m))
            .map(|m| m.0)
            .collect();
        assert_eq!(faulted, [0, 1, 2, 3, 6, 7]);
    }

    #[test]
    fn chaos_steps_apply_in_the_cluster_and_name_the_machines_to_take_down() {
        let mut c = grid();
        let at = SimTime::from_secs(1);
        let plan = ChaosPlan::new()
            .partition_window(at, at, MachineId(0), MachineId(9))
            .domain_fail_stop(at, DomainId(3))
            .correlated_fail_stop(at, &[MachineId(2)])
            .switch_partition_window(at, at, SwitchId(3));
        c.install_chaos(&plan, 7).unwrap();
        let (action, down) = c.apply_chaos(0).unwrap();
        assert_eq!(
            action,
            ChaosAction::Partition {
                a: MachineId(0),
                b: MachineId(9)
            }
        );
        assert!(down.is_empty() && c.network().is_partitioned(MachineId(9), MachineId(0)));
        c.apply_chaos(1).unwrap();
        assert!(!c.network().is_partitioned(MachineId(0), MachineId(9)));
        c.machine_mut(MachineId(6)).fail(SimTime::ZERO);
        assert_eq!(
            c.apply_chaos(2).unwrap().1,
            [MachineId(7)],
            "rack 3's live machines"
        );
        assert_eq!(c.apply_chaos(3).unwrap().1, [MachineId(2)]);
        c.machine_mut(MachineId(2)).fail(SimTime::ZERO);
        c.apply_chaos(4).unwrap();
        assert!(c.network().is_partitioned(MachineId(12), MachineId(0)));
        assert!(c.domain_has_active_fault(MachineId(15)));
        c.apply_chaos(5).unwrap();
        assert!(!c.network().is_partitioned(MachineId(12), MachineId(0)));
        assert!(c.apply_chaos(6).is_none(), "past the plan's end");
    }

    #[test]
    fn a_plan_naming_an_unknown_switch_installs_nothing() {
        let mut c = grid();
        let plan = ChaosPlan::new().step(
            SimTime::ZERO,
            ChaosAction::PartitionSwitch {
                switch: SwitchId(4),
            },
        );
        let err = c.install_chaos(&plan, 7).unwrap_err();
        assert_eq!(err.target, ChaosTarget::Switch(SwitchId(4)));
        assert!(c.apply_chaos(0).is_none());
    }

    #[test]
    #[should_panic]
    fn unknown_machine_panics() {
        let c: Cluster = Cluster::new(NetworkConfig::default());
        let _ = c.machine(MachineId(0));
    }
}
