//! Fault domains: the rack/switch topology machines live in.
//!
//! Su & Zhou (arXiv:1508.04907) argue that massively parallel SPEs must
//! tolerate *correlated* failures — a power rail takes out a whole rack, a
//! top-of-rack switch isolates every machine behind it. A
//! [`FaultTopology`] records which rack each machine sits in and which
//! switch each rack hangs off, so that
//!
//! * chaos plans can scope an action to a domain ("fail rack r2",
//!   "partition switch s1") and the harness expands it to the member
//!   machines, and
//! * placement can keep a subjob's primary/standby pair *domain-disjoint*,
//!   guaranteeing one domain-scoped fault never removes both replicas.
//!
//! The default topology is *flat*: every machine is its own rack behind
//! its own switch. That is the degenerate "no correlated domains" case and
//! it is deliberately indistinguishable from the pre-domain cluster — a
//! run that never installs a topology and never injects a domain fault
//! behaves (and renders) byte-identically to one built before domains
//! existed.

use std::fmt;

use crate::machine::MachineId;

/// Identifier of one rack-level fault domain. Displayed as `r{n}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of one top-of-rack switch. Displayed as `s{n}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The rack/switch topology of a cluster: machine → rack → switch.
///
/// ```
/// use sps_cluster::{DomainId, FaultTopology, MachineId, SwitchId};
///
/// // 8 machines, 2 per rack, 2 racks per switch.
/// let t = FaultTopology::grid(8, 2, 2);
/// assert_eq!(t.rack_of(MachineId(5)), DomainId(2));
/// assert_eq!(t.switch_of(MachineId(5)), SwitchId(1));
/// assert!(t.domain_disjoint(MachineId(0), MachineId(4)));
/// assert!(!t.domain_disjoint(MachineId(0), MachineId(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTopology {
    /// Per-machine rack assignment (indexed by machine id).
    rack_of: Vec<DomainId>,
    /// Per-rack switch assignment (indexed by rack id).
    switch_of: Vec<SwitchId>,
}

impl FaultTopology {
    /// The flat (degenerate) topology: each of `machines` machines is its
    /// own rack behind its own switch. No two machines share any domain.
    pub fn flat(machines: usize) -> Self {
        FaultTopology {
            rack_of: (0..machines as u32).map(DomainId).collect(),
            switch_of: (0..machines as u32).map(SwitchId).collect(),
        }
    }

    /// A regular grid: machine `m` sits in rack `m / machines_per_rack`,
    /// and rack `r` hangs off switch `r / racks_per_switch`.
    ///
    /// # Panics
    ///
    /// Panics when either grouping factor is zero.
    pub fn grid(machines: usize, machines_per_rack: usize, racks_per_switch: usize) -> Self {
        assert!(machines_per_rack > 0, "machines_per_rack must be positive");
        assert!(racks_per_switch > 0, "racks_per_switch must be positive");
        let racks = machines.div_ceil(machines_per_rack);
        FaultTopology {
            rack_of: (0..machines)
                .map(|m| DomainId((m / machines_per_rack) as u32))
                .collect(),
            switch_of: (0..racks)
                .map(|r| SwitchId((r / racks_per_switch) as u32))
                .collect(),
        }
    }

    /// Number of machines the topology covers.
    pub fn machines(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.switch_of.len()
    }

    /// Number of distinct switches.
    pub fn switch_count(&self) -> usize {
        self.switch_of
            .iter()
            .map(|s| s.0)
            .max()
            .map_or(0, |max| max as usize + 1)
    }

    /// The rack `m` sits in.
    ///
    /// # Panics
    ///
    /// Panics when `m` is outside the topology.
    pub fn rack_of(&self, m: MachineId) -> DomainId {
        self.rack_of[m.0 as usize]
    }

    /// The switch `m` is behind.
    ///
    /// # Panics
    ///
    /// Panics when `m` is outside the topology.
    pub fn switch_of(&self, m: MachineId) -> SwitchId {
        self.switch_of[self.rack_of(m).0 as usize]
    }

    /// Machines in rack `r`, in id order.
    pub fn machines_in_rack(&self, r: DomainId) -> impl Iterator<Item = MachineId> + '_ {
        self.rack_of
            .iter()
            .enumerate()
            .filter(move |(_, &rack)| rack == r)
            .map(|(m, _)| MachineId(m as u32))
    }

    /// Machines behind switch `s`, in id order.
    pub fn machines_behind_switch(&self, s: SwitchId) -> impl Iterator<Item = MachineId> + '_ {
        self.rack_of
            .iter()
            .enumerate()
            .filter(move |(_, &rack)| self.switch_of[rack.0 as usize] == s)
            .map(|(m, _)| MachineId(m as u32))
    }

    /// `true` when `a` and `b` share neither rack nor switch — the
    /// placement invariant for a primary/standby pair: no single
    /// domain-scoped fault (rack power loss or switch partition) can take
    /// out both replicas.
    pub fn domain_disjoint(&self, a: MachineId, b: MachineId) -> bool {
        self.rack_of(a) != self.rack_of(b) && self.switch_of(a) != self.switch_of(b)
    }

    /// Extends the topology with one machine in its own new rack behind
    /// its own new switch (the flat default for machines added after the
    /// topology was installed).
    pub fn push_flat_machine(&mut self) {
        let rack = DomainId(self.switch_of.len() as u32);
        let switch = SwitchId(self.switch_count() as u32);
        self.rack_of.push(rack);
        self.switch_of.push(switch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_has_no_shared_domains() {
        let t = FaultTopology::flat(5);
        assert_eq!(t.machines(), 5);
        assert_eq!(t.rack_count(), 5);
        assert_eq!(t.switch_count(), 5);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    assert!(t.domain_disjoint(MachineId(a), MachineId(b)));
                }
            }
        }
    }

    #[test]
    fn grid_groups_machines_and_racks() {
        let t = FaultTopology::grid(12, 3, 2);
        assert_eq!(t.machines(), 12);
        assert_eq!(t.rack_count(), 4);
        assert_eq!(t.switch_count(), 2);
        assert_eq!(t.rack_of(MachineId(0)), DomainId(0));
        assert_eq!(t.rack_of(MachineId(11)), DomainId(3));
        assert_eq!(t.switch_of(MachineId(0)), SwitchId(0));
        assert_eq!(t.switch_of(MachineId(11)), SwitchId(1));
        assert_eq!(
            t.machines_in_rack(DomainId(1)).collect::<Vec<_>>(),
            vec![MachineId(3), MachineId(4), MachineId(5)]
        );
        assert_eq!(t.machines_behind_switch(SwitchId(1)).count(), 6);
    }

    #[test]
    fn disjointness_requires_both_rack_and_switch() {
        let t = FaultTopology::grid(8, 2, 2);
        // Same rack: not disjoint.
        assert!(!t.domain_disjoint(MachineId(0), MachineId(1)));
        // Different rack, same switch: still not disjoint.
        assert!(!t.domain_disjoint(MachineId(0), MachineId(2)));
        // Different rack and switch: disjoint.
        assert!(t.domain_disjoint(MachineId(0), MachineId(4)));
    }

    #[test]
    fn ragged_grid_last_rack_is_short() {
        let t = FaultTopology::grid(7, 3, 2);
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.machines_in_rack(DomainId(2)).count(), 1);
    }

    #[test]
    fn push_flat_machine_extends_without_sharing() {
        let mut t = FaultTopology::grid(4, 2, 1);
        let before = t.machines();
        t.push_flat_machine();
        assert_eq!(t.machines(), before + 1);
        let m = MachineId(before as u32);
        for other in 0..before as u32 {
            assert!(t.domain_disjoint(m, MachineId(other)));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(DomainId(3).to_string(), "r3");
        assert_eq!(SwitchId(1).to_string(), "s1");
    }
}
