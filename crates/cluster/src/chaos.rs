//! Chaos fault injection: per-link fault profiles and declarative,
//! time-stamped chaos schedules.
//!
//! The paper's testbed is a well-behaved switched LAN, but its *premise* is
//! transient unavailability — so validating the AS/PS/Hybrid protocols
//! requires a network that can misbehave on demand. A [`FaultProfile`]
//! describes how one directed link misbehaves (independent loss, bursty
//! Gilbert–Elliott loss, delay jitter and hence reordering, and
//! duplication). A [`ChaosPlan`] is a declarative list of
//! timed [`ChaosAction`]s — loss windows, flapping links, one-way
//! partitions, correlated fail-stops — that a harness
//! replays against the cluster. Everything is pure data here; the
//! [`Network`](crate::Network) consumes profiles and the simulation world
//! applies scheduled actions.
//!
//! Determinism: all randomness is drawn from the network's dedicated chaos
//! RNG stream, and **only** for sends that an active profile covers. A run
//! with no profiles installed draws nothing and is bit-identical to a run
//! on a build without chaos at all.

use sps_sim::{SimDuration, SimTime};

use crate::domain::{DomainId, SwitchId};
use crate::machine::MachineId;

/// Parameters of the two-state Gilbert–Elliott burst-loss chain.
///
/// The link is either *good* or *bad*. The state is re-drawn per message:
/// from good it enters bad with probability `good_to_bad`; from bad it
/// returns to good with probability `bad_to_good` (so mean burst length is
/// `1 / bad_to_good` messages). While bad, each message is lost with
/// probability `bad_loss_prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Per-message probability of entering the bad (bursty) state.
    pub good_to_bad: f64,
    /// Per-message probability of leaving the bad state.
    pub bad_to_good: f64,
    /// Loss probability while the link is in the bad state.
    pub bad_loss_prob: f64,
}

impl BurstLoss {
    fn validate(&self) {
        for (name, p) in [
            ("good_to_bad", self.good_to_bad),
            ("bad_to_good", self.bad_to_good),
            ("bad_loss_prob", self.bad_loss_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "burst {name} must be a probability, got {p}"
            );
        }
    }
}

/// How one *directed* link misbehaves.
///
/// A profile combines independent per-message loss, an optional
/// Gilbert–Elliott burst chain, uniform delay jitter (which reorders
/// messages relative to FIFO serialization order) and duplication. The
/// default profile is a no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Independent per-message loss probability.
    pub loss_prob: f64,
    /// Optional bursty-loss chain layered on top of `loss_prob`.
    pub burst: Option<BurstLoss>,
    /// Extra delivery delay drawn uniformly from `[0, jitter)` per message.
    /// Non-zero jitter produces reordering.
    pub jitter: SimDuration,
    /// Probability that a delivered message arrives twice.
    pub duplicate_prob: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            loss_prob: 0.0,
            burst: None,
            jitter: SimDuration::ZERO,
            duplicate_prob: 0.0,
        }
    }
}

impl FaultProfile {
    /// A profile that only drops messages, each independently with
    /// probability `p`.
    pub fn loss(p: f64) -> Self {
        FaultProfile {
            loss_prob: p,
            ..FaultProfile::default()
        }
    }

    /// A profile that drops everything: a one-way blackhole when installed
    /// on a single directed link.
    pub fn blackhole() -> Self {
        FaultProfile::loss(1.0)
    }

    /// Adds a Gilbert–Elliott burst chain.
    pub fn with_burst(mut self, burst: BurstLoss) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Adds uniform `[0, jitter)` delivery jitter.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Adds per-message duplication with probability `p`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Panics if any parameter is out of range.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.loss_prob),
            "loss_prob must be a probability, got {}",
            self.loss_prob
        );
        assert!(
            (0.0..=1.0).contains(&self.duplicate_prob),
            "duplicate_prob must be a probability, got {}",
            self.duplicate_prob
        );
        if let Some(b) = &self.burst {
            b.validate();
        }
    }
}

/// One fault-injection action, applied at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosAction {
    /// Installs `profile` on the directed link `src -> dst`.
    LinkFaults {
        /// Sending side of the directed link.
        src: MachineId,
        /// Receiving side of the directed link.
        dst: MachineId,
        /// The profile to install.
        profile: FaultProfile,
    },
    /// Removes any profile from the directed link `src -> dst`.
    ClearLinkFaults {
        /// Sending side of the directed link.
        src: MachineId,
        /// Receiving side of the directed link.
        dst: MachineId,
    },
    /// Sets (or with `None` clears) the profile applied to every link that
    /// has no per-link profile of its own.
    DefaultFaults {
        /// The new default profile.
        profile: Option<FaultProfile>,
    },
    /// Cuts the link between two machines in both directions.
    Partition {
        /// One endpoint.
        a: MachineId,
        /// The other endpoint.
        b: MachineId,
    },
    /// Heals a previously cut link.
    Heal {
        /// One endpoint.
        a: MachineId,
        /// The other endpoint.
        b: MachineId,
    },
    /// Fail-stops a machine (crash; tasks lost, no new work accepted).
    FailStop {
        /// The machine to crash.
        machine: MachineId,
    },
    /// Correlated domain failure: fail-stops every machine in a rack at
    /// once (the harness expands the rack to its member machines from the
    /// cluster's [`FaultTopology`](crate::FaultTopology)).
    FailDomain {
        /// The rack whose machines all crash.
        rack: DomainId,
    },
    /// Partitions every machine behind a switch from the rest of the
    /// cluster (both directions; the harness expands membership from the
    /// topology).
    PartitionSwitch {
        /// The switch that goes dark.
        switch: SwitchId,
    },
    /// Heals a previous [`PartitionSwitch`](Self::PartitionSwitch).
    HealSwitch {
        /// The switch to restore.
        switch: SwitchId,
    },
}

/// One timed step of a [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosStep {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: ChaosAction,
}

/// A declarative chaos campaign: an ordered list of timed actions.
///
/// Build one with the fluent helpers, then hand it to a harness that
/// schedules each step at its instant. Steps keep insertion order for
/// actions scheduled at the same instant, so campaigns are deterministic.
///
/// ```
/// use sps_cluster::{ChaosPlan, FaultProfile, MachineId};
/// use sps_sim::SimTime;
///
/// let plan = ChaosPlan::new()
///     .loss_window(
///         SimTime::from_secs(2),
///         SimTime::from_secs(8),
///         FaultProfile::loss(0.02),
///     )
///     .correlated_fail_stop(SimTime::from_secs(5), &[MachineId(1), MachineId(2)]);
/// assert_eq!(plan.steps().len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    steps: Vec<ChaosStep>,
}

impl ChaosPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Appends one raw step.
    pub fn step(mut self, at: SimTime, action: ChaosAction) -> Self {
        if let ChaosAction::LinkFaults { profile, .. } = &action {
            profile.validate();
        }
        if let ChaosAction::DefaultFaults {
            profile: Some(profile),
        } = &action
        {
            profile.validate();
        }
        self.steps.push(ChaosStep { at, action });
        self
    }

    /// Applies `profile` to all links (the network-wide default) from
    /// `from` until `until`.
    pub fn loss_window(self, from: SimTime, until: SimTime, profile: FaultProfile) -> Self {
        assert!(from <= until, "loss window ends before it starts");
        self.step(
            from,
            ChaosAction::DefaultFaults {
                profile: Some(profile),
            },
        )
        .step(until, ChaosAction::DefaultFaults { profile: None })
    }

    /// Applies `profile` to both directions of the `a <-> b` link from
    /// `from` until `until`.
    pub fn link_window(
        self,
        from: SimTime,
        until: SimTime,
        a: MachineId,
        b: MachineId,
        profile: FaultProfile,
    ) -> Self {
        assert!(from <= until, "link window ends before it starts");
        self.step(
            from,
            ChaosAction::LinkFaults {
                src: a,
                dst: b,
                profile,
            },
        )
        .step(
            from,
            ChaosAction::LinkFaults {
                src: b,
                dst: a,
                profile,
            },
        )
        .step(until, ChaosAction::ClearLinkFaults { src: a, dst: b })
        .step(until, ChaosAction::ClearLinkFaults { src: b, dst: a })
    }

    /// Blackholes only the `src -> dst` direction (a one-way partition, the
    /// classic split-brain trigger) from `from` until `until`.
    pub fn one_way_partition(
        self,
        from: SimTime,
        until: SimTime,
        src: MachineId,
        dst: MachineId,
    ) -> Self {
        assert!(from <= until, "one-way partition ends before it starts");
        self.step(
            from,
            ChaosAction::LinkFaults {
                src,
                dst,
                profile: FaultProfile::blackhole(),
            },
        )
        .step(until, ChaosAction::ClearLinkFaults { src, dst })
    }

    /// Cuts `a <-> b` from `from` until `until` (both directions).
    pub fn partition_window(
        self,
        from: SimTime,
        until: SimTime,
        a: MachineId,
        b: MachineId,
    ) -> Self {
        assert!(from <= until, "partition window ends before it starts");
        self.step(from, ChaosAction::Partition { a, b })
            .step(until, ChaosAction::Heal { a, b })
    }

    /// A flapping link: `a <-> b` alternates cut/healed every `period`
    /// starting (cut) at `from`, with a final heal at or after `until`.
    pub fn flapping_link(
        mut self,
        from: SimTime,
        until: SimTime,
        period: SimDuration,
        a: MachineId,
        b: MachineId,
    ) -> Self {
        assert!(from < until, "flapping window ends before it starts");
        assert!(period > SimDuration::ZERO, "flap period must be positive");
        let mut t = from;
        let mut cut = true;
        while t < until {
            let action = if cut {
                ChaosAction::Partition { a, b }
            } else {
                ChaosAction::Heal { a, b }
            };
            self = self.step(t, action);
            cut = !cut;
            t += period;
        }
        if !cut {
            // Last scheduled action was a cut; always leave the link healed.
            self = self.step(t, ChaosAction::Heal { a, b });
        }
        self
    }

    /// Correlated failure: fail-stops every listed machine at the same
    /// instant (Su & Zhou's regime where single-fault injection
    /// underestimates recovery cost).
    pub fn correlated_fail_stop(mut self, at: SimTime, machines: &[MachineId]) -> Self {
        for &machine in machines {
            self = self.step(at, ChaosAction::FailStop { machine });
        }
        self
    }

    /// Correlated *domain* failure: fail-stops every machine in `rack` at
    /// `at`. The rack expands to its member machines when the harness
    /// applies the step against the cluster's topology.
    pub fn domain_fail_stop(self, at: SimTime, rack: DomainId) -> Self {
        self.step(at, ChaosAction::FailDomain { rack })
    }

    /// Partitions every machine behind `switch` from the rest of the
    /// cluster from `from` until `until`, then heals.
    pub fn switch_partition_window(self, from: SimTime, until: SimTime, switch: SwitchId) -> Self {
        assert!(from <= until, "switch partition ends before it starts");
        self.step(from, ChaosAction::PartitionSwitch { switch })
            .step(until, ChaosAction::HealSwitch { switch })
    }

    /// The steps in insertion order.
    pub fn steps(&self) -> &[ChaosStep] {
        &self.steps
    }

    /// `true` when the plan contains no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_noop() {
        let p = FaultProfile::default();
        assert_eq!(p.loss_prob, 0.0);
        assert_eq!(p.duplicate_prob, 0.0);
        assert!(p.burst.is_none());
        p.validate();
    }

    #[test]
    fn builders_compose() {
        let p = FaultProfile::loss(0.05)
            .with_jitter(SimDuration::from_micros(500))
            .with_duplication(0.01)
            .with_burst(BurstLoss {
                good_to_bad: 0.01,
                bad_to_good: 0.2,
                bad_loss_prob: 0.8,
            });
        p.validate();
        assert_eq!(p.loss_prob, 0.05);
        assert!(p.burst.is_some());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_prob_rejected() {
        FaultProfile::loss(1.5).validate();
    }

    #[test]
    fn loss_window_opens_and_closes() {
        let plan = ChaosPlan::new().loss_window(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            FaultProfile::loss(0.1),
        );
        assert_eq!(plan.steps().len(), 2);
        assert!(matches!(
            plan.steps()[0].action,
            ChaosAction::DefaultFaults { profile: Some(_) }
        ));
        assert!(matches!(
            plan.steps()[1].action,
            ChaosAction::DefaultFaults { profile: None }
        ));
    }

    #[test]
    fn one_way_partition_is_directional_blackhole() {
        let plan = ChaosPlan::new().one_way_partition(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            MachineId(3),
            MachineId(7),
        );
        match plan.steps()[0].action {
            ChaosAction::LinkFaults { src, dst, profile } => {
                assert_eq!((src, dst), (MachineId(3), MachineId(7)));
                assert_eq!(profile.loss_prob, 1.0);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn flapping_link_always_ends_healed() {
        for secs in [3u64, 4] {
            let plan = ChaosPlan::new().flapping_link(
                SimTime::from_secs(1),
                SimTime::from_secs(secs),
                SimDuration::from_secs(1),
                MachineId(0),
                MachineId(1),
            );
            let last = plan.steps().last().unwrap();
            assert!(
                matches!(last.action, ChaosAction::Heal { .. }),
                "window to {secs}s must end healed, got {:?}",
                last.action
            );
            let cuts = plan
                .steps()
                .iter()
                .filter(|s| matches!(s.action, ChaosAction::Partition { .. }))
                .count();
            let heals = plan
                .steps()
                .iter()
                .filter(|s| matches!(s.action, ChaosAction::Heal { .. }))
                .count();
            assert_eq!(cuts, heals, "every cut has a heal");
        }
    }

    #[test]
    fn domain_builders_compose() {
        let plan = ChaosPlan::new()
            .domain_fail_stop(SimTime::from_secs(3), DomainId(1))
            .switch_partition_window(SimTime::from_secs(4), SimTime::from_secs(6), SwitchId(0));
        assert_eq!(plan.steps().len(), 3);
        assert!(matches!(
            plan.steps()[0].action,
            ChaosAction::FailDomain { rack: DomainId(1) }
        ));
        assert!(matches!(
            plan.steps()[1].action,
            ChaosAction::PartitionSwitch {
                switch: SwitchId(0)
            }
        ));
        assert!(matches!(
            plan.steps()[2].action,
            ChaosAction::HealSwitch {
                switch: SwitchId(0)
            }
        ));
    }

    #[test]
    fn correlated_fail_stop_hits_all_machines_at_once() {
        let at = SimTime::from_secs(5);
        let plan = ChaosPlan::new().correlated_fail_stop(at, &[MachineId(1), MachineId(6)]);
        assert_eq!(plan.steps().len(), 2);
        assert!(plan.steps().iter().all(|s| s.at == at));
    }
}
