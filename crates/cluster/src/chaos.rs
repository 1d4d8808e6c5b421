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
//! [`Network`](crate::Network) consumes profiles and the
//! [`Cluster`](crate::Cluster) applies scheduled actions, handing the
//! machines a fail-stop takes down back to its owner.
//!
//! Determinism: all randomness is drawn from the network's dedicated chaos
//! RNG stream, and **only** for sends that an active profile covers. A run
//! with no profiles installed draws nothing and is bit-identical to a run
//! on a build without chaos at all.

use std::fmt;

use sps_sim::{SimDuration, SimTime};

use crate::domain::{DomainId, FaultTopology, SwitchId};
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

    /// Checks that every probability, the burst chain's included, lies in
    /// `[0, 1]`; the first that does not is the error.
    pub fn validate(&self) -> Result<(), BadProbability> {
        // Without a burst chain, its three fields read as a valid 0.
        let burst = |field: fn(&BurstLoss) -> f64| self.burst.as_ref().map_or(0.0, field);
        [
            ("loss_prob", self.loss_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("burst.good_to_bad", burst(|b| b.good_to_bad)),
            ("burst.bad_to_good", burst(|b| b.bad_to_good)),
            ("burst.bad_loss_prob", burst(|b| b.bad_loss_prob)),
        ]
        .into_iter()
        .find(|(_, value)| !(0.0..=1.0).contains(value))
        .map(|(field, value)| BadProbability { field, value })
        .map_or(Ok(()), Err)
    }
}

/// A [`FaultProfile`] parameter outside `[0, 1]` ([`FaultProfile::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadProbability {
    /// The field, as `loss_prob` or `burst.good_to_bad`.
    pub field: &'static str,
    /// Its value.
    pub value: f64,
}

impl fmt::Display for BadProbability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let BadProbability { field, value } = self;
        write!(f, "{field} must be a probability in [0, 1], got {value}")
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
    /// once (the cluster expands the rack to its member machines from its
    /// [`FaultTopology`]).
    FailDomain {
        /// The rack whose machines all crash.
        rack: DomainId,
    },
    /// Partitions every machine behind a switch from the rest of the
    /// cluster (both directions; the cluster expands membership from its
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
    /// For the closing step of a window helper, the index of the step that
    /// opened the window; `None` for every other step.
    pub closes: Option<usize>,
}

/// A declarative chaos campaign: an ordered list of timed actions.
///
/// Build one with the fluent helpers, then hand it to a harness that
/// schedules each step at its instant. Steps keep insertion order for
/// actions scheduled at the same instant, so campaigns are deterministic.
///
/// Windows compose by slot. A slot is one piece of network state: the
/// network-wide default profile, one directed link's profile, one pair's
/// cut, or one switch. Each window helper pairs its closing step with its
/// opening one ([`ChaosStep::closes`]). While windows on one slot overlap,
/// the most recently opened one still open applies, so closing one window
/// never ends another. A raw closing step from [`step`](Self::step) — a
/// `Heal`, `ClearLinkFaults`, `HealSwitch` or cleared default — closes
/// every window open on its slot.
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

    /// Appends one raw step; [`check`](Self::check) judges it.
    pub fn step(self, at: SimTime, action: ChaosAction) -> Self {
        self.push(at, action, None)
    }

    fn push(mut self, at: SimTime, action: ChaosAction, closes: Option<usize>) -> Self {
        self.steps.push(ChaosStep { at, action, closes });
        self
    }

    /// Appends a window's closing step, ending the window opened `back`
    /// steps before it.
    fn close(self, at: SimTime, action: ChaosAction, back: usize) -> Self {
        let opened = self.steps.len() - back;
        self.push(at, action, Some(opened))
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
        .close(until, ChaosAction::DefaultFaults { profile: None }, 1)
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
        .close(until, ChaosAction::ClearLinkFaults { src: a, dst: b }, 2)
        .close(until, ChaosAction::ClearLinkFaults { src: b, dst: a }, 2)
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
        .close(until, ChaosAction::ClearLinkFaults { src, dst }, 1)
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
            .close(until, ChaosAction::Heal { a, b }, 1)
    }

    /// A flapping link: `a <-> b` alternates cut/healed every `period`
    /// starting (cut) at `from`, with a final heal at or after `until`.
    /// Each heal closes the cut before it.
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
            self = if cut {
                self.step(t, ChaosAction::Partition { a, b })
            } else {
                self.close(t, ChaosAction::Heal { a, b }, 1)
            };
            cut = !cut;
            t += period;
        }
        if !cut {
            // Last scheduled action was a cut; always leave the link healed.
            self = self.close(t, ChaosAction::Heal { a, b }, 1);
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
    /// `at`. The rack expands to its member machines when the cluster
    /// applies the step against its topology.
    pub fn domain_fail_stop(self, at: SimTime, rack: DomainId) -> Self {
        self.step(at, ChaosAction::FailDomain { rack })
    }

    /// Partitions every machine behind `switch` from the rest of the
    /// cluster from `from` until `until`, then heals.
    pub fn switch_partition_window(self, from: SimTime, until: SimTime, switch: SwitchId) -> Self {
        assert!(from <= until, "switch partition ends before it starts");
        self.step(from, ChaosAction::PartitionSwitch { switch })
            .close(until, ChaosAction::HealSwitch { switch }, 1)
    }

    /// The steps in insertion order.
    pub fn steps(&self) -> &[ChaosStep] {
        &self.steps
    }

    /// `true` when the plan contains no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Checks that every step names only machines, racks and switches of
    /// `topology`, and installs only valid fault profiles; the first step
    /// that does not is the error.
    pub fn check(&self, topology: &FaultTopology) -> Result<(), ChaosPlanError> {
        let machine_ok = |m: MachineId| (m.0 as usize) < topology.machines();
        for (step, s) in self.steps.iter().enumerate() {
            let unknown = match s.action {
                ChaosAction::LinkFaults { src: a, dst: b, .. }
                | ChaosAction::ClearLinkFaults { src: a, dst: b }
                | ChaosAction::Partition { a, b }
                | ChaosAction::Heal { a, b } => [a, b]
                    .into_iter()
                    .find(|&m| !machine_ok(m))
                    .map(ChaosTarget::Machine),
                ChaosAction::FailStop { machine } => {
                    (!machine_ok(machine)).then_some(ChaosTarget::Machine(machine))
                }
                ChaosAction::FailDomain { rack } => {
                    ((rack.0 as usize) >= topology.rack_count()).then_some(ChaosTarget::Rack(rack))
                }
                ChaosAction::PartitionSwitch { switch } | ChaosAction::HealSwitch { switch } => {
                    ((switch.0 as usize) >= topology.switch_count())
                        .then_some(ChaosTarget::Switch(switch))
                }
                ChaosAction::DefaultFaults { .. } => None,
            };
            let bad_profile = match s.action {
                ChaosAction::LinkFaults { profile, .. }
                | ChaosAction::DefaultFaults {
                    profile: Some(profile),
                } => profile.validate().err().map(ChaosTarget::Profile),
                _ => None,
            };
            if let Some(target) = unknown.or(bad_profile) {
                return Err(ChaosPlanError { step, target });
            }
        }
        Ok(())
    }
}

/// What a chaos step gets wrong: a machine, rack or switch it names, or
/// the fault profile it installs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosTarget {
    /// A machine.
    Machine(MachineId),
    /// A rack.
    Rack(DomainId),
    /// A switch.
    Switch(SwitchId),
    /// A fault profile with a parameter out of range.
    Profile(BadProbability),
}

/// A chaos plan step names something the cluster's topology lacks, or
/// installs an invalid fault profile ([`ChaosPlan::check`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlanError {
    /// Index of the offending step in [`ChaosPlan::steps`].
    pub step: usize,
    /// What it names that does not exist, or the profile it installs.
    pub target: ChaosTarget,
}

impl fmt::Display for ChaosPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, id) = match self.target {
            ChaosTarget::Machine(m) => ("machine", m.to_string()),
            ChaosTarget::Rack(r) => ("rack", r.to_string()),
            ChaosTarget::Switch(s) => ("switch", s.to_string()),
            ChaosTarget::Profile(bad) => return write!(f, "chaos step {}: {bad}", self.step),
        };
        write!(f, "chaos step {} names unknown {kind} {id}", self.step)
    }
}

impl std::error::Error for ChaosPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_noop() {
        let p = FaultProfile::default();
        assert_eq!(p.loss_prob, 0.0);
        assert_eq!(p.duplicate_prob, 0.0);
        assert!(p.burst.is_none());
        assert_eq!(p.validate(), Ok(()));
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
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.loss_prob, 0.05);
        assert!(p.burst.is_some());
    }

    #[test]
    fn invalid_loss_prob_rejected() {
        let err = FaultProfile::loss(1.5).validate().unwrap_err();
        assert_eq!((err.field, err.value), ("loss_prob", 1.5));
        assert_eq!(
            err.to_string(),
            "loss_prob must be a probability in [0, 1], got 1.5"
        );
    }

    /// The plan refuses `profile` at its first step, naming `field`.
    fn refused(profile: FaultProfile, field: &str) {
        let t = SimTime::from_secs(1);
        let topo = FaultTopology::grid(8, 2, 2);
        for plan in [
            ChaosPlan::new().loss_window(t, t, profile),
            ChaosPlan::new().link_window(t, t, MachineId(0), MachineId(7), profile),
        ] {
            let err = plan.check(&topo).unwrap_err();
            assert_eq!(err.step, 0);
            match err.target {
                ChaosTarget::Profile(bad) => assert_eq!(bad.field, field),
                other => panic!("expected a bad profile, got {other:?}"),
            }
        }
    }

    #[test]
    fn check_refuses_a_negative_loss_prob() {
        refused(FaultProfile::loss(-0.1), "loss_prob");
    }

    #[test]
    fn check_refuses_a_nan_loss_prob() {
        refused(FaultProfile::loss(f64::NAN), "loss_prob");
    }

    #[test]
    fn check_refuses_a_duplicate_prob_above_one() {
        refused(
            FaultProfile::default().with_duplication(1.01),
            "duplicate_prob",
        );
    }

    #[test]
    fn check_refuses_a_bad_burst_chain() {
        let chain = BurstLoss {
            good_to_bad: 0.01,
            bad_to_good: 0.2,
            bad_loss_prob: 0.6,
        };
        for (field, bad) in [
            (
                "burst.good_to_bad",
                BurstLoss {
                    good_to_bad: 2.0,
                    ..chain
                },
            ),
            (
                "burst.bad_to_good",
                BurstLoss {
                    bad_to_good: -1.0,
                    ..chain
                },
            ),
            (
                "burst.bad_loss_prob",
                BurstLoss {
                    bad_loss_prob: 1.5,
                    ..chain
                },
            ),
        ] {
            refused(FaultProfile::default().with_burst(bad), field);
        }
        let err = ChaosPlan::new()
            .correlated_fail_stop(SimTime::ZERO, &[MachineId(1)])
            .loss_window(
                SimTime::ZERO,
                SimTime::ZERO,
                FaultProfile::loss(0.1).with_burst(BurstLoss {
                    bad_loss_prob: 1.5,
                    ..chain
                }),
            )
            .check(&FaultTopology::flat(2))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "chaos step 1: burst.bad_loss_prob must be a probability in [0, 1], got 1.5"
        );
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
    fn check_names_the_first_step_outside_the_topology() {
        // 8 machines, racks r0..r3, switches s0..s1.
        let topo = FaultTopology::grid(8, 2, 2);
        let t = SimTime::from_secs(1);
        let ok = ChaosPlan::new()
            .link_window(t, t, MachineId(0), MachineId(7), FaultProfile::loss(0.1))
            .partition_window(t, t, MachineId(7), MachineId(3))
            .domain_fail_stop(t, DomainId(3))
            .switch_partition_window(t, t, SwitchId(1))
            .correlated_fail_stop(t, &[MachineId(7)])
            .loss_window(t, t, FaultProfile::loss(0.1));
        assert_eq!(ok.check(&topo), Ok(()));
        let bad = |plan: ChaosPlan| plan.check(&topo).unwrap_err();
        let err = bad(ok.clone().domain_fail_stop(t, DomainId(4)));
        assert_eq!((err.step, err.target), (12, ChaosTarget::Rack(DomainId(4))));
        assert_eq!(err.to_string(), "chaos step 12 names unknown rack r4");
        let err = bad(ChaosPlan::new().switch_partition_window(t, t, SwitchId(2)));
        assert_eq!(
            (err.step, err.target),
            (0, ChaosTarget::Switch(SwitchId(2)))
        );
        let err = bad(ChaosPlan::new().one_way_partition(t, t, MachineId(1), MachineId(8)));
        assert_eq!(
            (err.step, err.target),
            (0, ChaosTarget::Machine(MachineId(8)))
        );
        let err = bad(ok
            .clone()
            .partition_window(t, t, MachineId(9), MachineId(0)));
        assert_eq!(err.target, ChaosTarget::Machine(MachineId(9)));
        let err = bad(ChaosPlan::new().correlated_fail_stop(t, &[MachineId(2), MachineId(8)]));
        assert_eq!(err.to_string(), "chaos step 1 names unknown machine m8");
    }

    #[test]
    fn correlated_fail_stop_hits_all_machines_at_once() {
        let at = SimTime::from_secs(5);
        let plan = ChaosPlan::new().correlated_fail_stop(at, &[MachineId(1), MachineId(6)]);
        assert_eq!(plan.steps().len(), 2);
        assert!(plan.steps().iter().all(|s| s.at == at));
    }
}
