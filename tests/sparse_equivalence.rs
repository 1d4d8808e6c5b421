//! Trace equivalence of the sparse O(active-links) network state against
//! an inline dense reference.
//!
//! [`DenseNet`] below is a faithful copy of the retired dense
//! representation: four row-major `stride × stride` matrices (busy-until,
//! partition flags, fault profiles, Gilbert–Elliott bits) with exact-fit
//! power-of-two regrowth. Both implementations are driven with identical
//! chaos seeds and op sequences; every delivery verdict and every counter
//! must agree byte-for-byte. This is the contract that lets all committed
//! goldens (≤83 machines) survive the sparse rewrite without regeneration.
//!
//! Partitions follow a set-of-causes model on both sides: a pair is cut
//! while it is cut explicitly or while a dark switch has exactly one of
//! the pair behind it, and healing one cause leaves the others standing.

use std::collections::BTreeSet;

use sps_cluster::{
    BurstLoss, ChaosAction, ChaosPlan, Cluster, Delivery, FaultProfile, FaultTopology, MachineId,
    Network, NetworkConfig, SwitchId,
};
use sps_sim::{SimDuration, SimRng, SimTime};

fn config() -> NetworkConfig {
    NetworkConfig {
        latency: SimDuration::from_micros(150),
        bandwidth_bytes_per_sec: 125_000_000.0,
        loopback_latency: SimDuration::from_micros(2),
    }
}

/// The retired dense-matrix network model, kept verbatim as the reference
/// semantics for the sparse representation, plus the set of dark switches
/// as the second partition cause.
struct DenseNet {
    config: NetworkConfig,
    topology: FaultTopology,
    dark: BTreeSet<SwitchId>,
    link_busy: Vec<SimTime>,
    partitioned: Vec<bool>,
    faults: Vec<Option<FaultProfile>>,
    burst_bad: Vec<bool>,
    stride: usize,
    partition_count: usize,
    fault_count: usize,
    default_faults: Option<FaultProfile>,
    chaos_rng: SimRng,
    messages_sent: u64,
    messages_dropped: u64,
    chaos_dropped: u64,
    messages_duplicated: u64,
    bytes_sent: u64,
    bytes_dropped: u64,
}

impl DenseNet {
    fn new(config: NetworkConfig, topology: FaultTopology) -> Self {
        DenseNet {
            config,
            topology,
            dark: BTreeSet::new(),
            link_busy: Vec::new(),
            partitioned: Vec::new(),
            faults: Vec::new(),
            burst_bad: Vec::new(),
            stride: 0,
            partition_count: 0,
            fault_count: 0,
            default_faults: None,
            chaos_rng: SimRng::seed_from(0),
            messages_sent: 0,
            messages_dropped: 0,
            chaos_dropped: 0,
            messages_duplicated: 0,
            bytes_sent: 0,
            bytes_dropped: 0,
        }
    }

    fn send(&mut self, now: SimTime, src: MachineId, dst: MachineId, bytes: u64) -> Delivery {
        self.messages_sent += 1;
        self.bytes_sent += bytes;
        self.ensure_stride(src, dst);
        if self.is_cut(src, dst) {
            self.messages_dropped += 1;
            self.bytes_dropped += bytes;
            return Delivery::Dropped;
        }
        let profile = if src == dst || (self.fault_count == 0 && self.default_faults.is_none()) {
            None
        } else {
            self.faults[self.link_idx(src, dst)].or(self.default_faults)
        };
        if let Some(p) = profile {
            if self.chaos_loses(src, dst, &p) {
                self.messages_dropped += 1;
                self.chaos_dropped += 1;
                self.bytes_dropped += bytes;
                return Delivery::Dropped;
            }
        }
        if src == dst {
            return Delivery::At(now + self.config.loopback_latency);
        }
        let ser = SimDuration::from_secs_f64(bytes as f64 / self.config.bandwidth_bytes_per_sec);
        let latency = self.config.latency;
        let busy = &mut self.link_busy[src.0 as usize * self.stride + dst.0 as usize];
        let start = if *busy > now { *busy } else { now };
        let done_serializing = start + ser;
        *busy = done_serializing;
        let mut arrival = done_serializing + latency;
        if let Some(p) = profile {
            if p.jitter > SimDuration::ZERO {
                arrival +=
                    SimDuration::from_secs_f64(self.chaos_rng.uniform(0.0, p.jitter.as_secs_f64()));
            }
            if p.duplicate_prob > 0.0 && self.chaos_rng.chance(p.duplicate_prob) {
                self.messages_duplicated += 1;
                return Delivery::Duplicated {
                    first: arrival,
                    second: arrival + latency,
                };
            }
        }
        Delivery::At(arrival)
    }

    fn ensure_stride(&mut self, src: MachineId, dst: MachineId) {
        let need = (src.0 as usize).max(dst.0 as usize) + 1;
        if need <= self.stride {
            return;
        }
        let old = self.stride;
        let new = need.next_power_of_two();
        let mut busy = vec![SimTime::ZERO; new * new];
        let mut partitioned = vec![false; new * new];
        let mut faults = vec![None; new * new];
        let mut burst_bad = vec![false; new * new];
        for row in 0..old {
            for col in 0..old {
                busy[row * new + col] = self.link_busy[row * old + col];
                partitioned[row * new + col] = self.partitioned[row * old + col];
                faults[row * new + col] = self.faults[row * old + col];
                burst_bad[row * new + col] = self.burst_bad[row * old + col];
            }
        }
        self.link_busy = busy;
        self.partitioned = partitioned;
        self.faults = faults;
        self.burst_bad = burst_bad;
        self.stride = new;
    }

    /// A pair is cut while it is cut explicitly, or while a dark switch
    /// has exactly one of the pair behind it.
    fn is_cut(&self, a: MachineId, b: MachineId) -> bool {
        let explicit = self.partition_count > 0
            && (a.0 as usize).max(b.0 as usize) < self.stride
            && self.partitioned[self.pair_idx(a, b)];
        let switched = !self.dark.is_empty() && {
            let (sa, sb) = (self.topology.switch_of(a), self.topology.switch_of(b));
            sa != sb && (self.dark.contains(&sa) || self.dark.contains(&sb))
        };
        explicit || switched
    }

    fn link_idx(&self, src: MachineId, dst: MachineId) -> usize {
        src.0 as usize * self.stride + dst.0 as usize
    }

    fn pair_idx(&self, a: MachineId, b: MachineId) -> usize {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.link_idx(lo, hi)
    }

    fn chaos_loses(&mut self, src: MachineId, dst: MachineId, p: &FaultProfile) -> bool {
        if let Some(b) = &p.burst {
            let idx = self.link_idx(src, dst);
            let bad_now = if self.burst_bad[idx] {
                !self.chaos_rng.chance(b.bad_to_good)
            } else {
                self.chaos_rng.chance(b.good_to_bad)
            };
            self.burst_bad[idx] = bad_now;
            if bad_now && self.chaos_rng.chance(b.bad_loss_prob) {
                return true;
            }
        }
        p.loss_prob > 0.0 && self.chaos_rng.chance(p.loss_prob)
    }

    fn reseed_chaos(&mut self, seed: u64) {
        self.chaos_rng = SimRng::seed_from(seed);
    }

    fn set_link_faults(&mut self, src: MachineId, dst: MachineId, profile: FaultProfile) {
        self.ensure_stride(src, dst);
        let idx = self.link_idx(src, dst);
        if self.faults[idx].is_none() {
            self.fault_count += 1;
        }
        self.faults[idx] = Some(profile);
    }

    fn clear_link_faults(&mut self, src: MachineId, dst: MachineId) {
        if (src.0 as usize).max(dst.0 as usize) >= self.stride {
            return;
        }
        let idx = self.link_idx(src, dst);
        if self.faults[idx].take().is_some() {
            self.fault_count -= 1;
        }
        self.burst_bad[idx] = false;
    }

    fn set_default_faults(&mut self, profile: Option<FaultProfile>) {
        if profile.is_none() {
            for (bad, fault) in self.burst_bad.iter_mut().zip(&self.faults) {
                if fault.is_none() {
                    *bad = false;
                }
            }
        }
        self.default_faults = profile;
    }

    fn clear_all_faults(&mut self) {
        self.faults.fill(None);
        self.fault_count = 0;
        self.default_faults = None;
        self.burst_bad.fill(false);
    }

    fn set_partitioned(&mut self, a: MachineId, b: MachineId, partitioned: bool) {
        self.ensure_stride(a, b);
        let idx = self.pair_idx(a, b);
        if self.partitioned[idx] != partitioned {
            self.partitioned[idx] = partitioned;
            if partitioned {
                self.partition_count += 1;
            } else {
                self.partition_count -= 1;
            }
        }
    }

    fn counters(&self) -> [u64; 6] {
        [
            self.messages_sent,
            self.messages_dropped,
            self.chaos_dropped,
            self.messages_duplicated,
            self.bytes_sent,
            self.bytes_dropped,
        ]
    }
}

fn counters(n: &Network) -> [u64; 6] {
    [
        n.messages_sent(),
        n.messages_dropped(),
        n.chaos_dropped(),
        n.messages_duplicated(),
        n.bytes_sent(),
        n.bytes_dropped(),
    ]
}

/// Draws a random (often nasty) fault profile.
fn random_profile(rng: &mut SimRng) -> FaultProfile {
    let mut p = match rng.uniform_u64(0, 4) {
        0 => FaultProfile::loss(rng.uniform(0.0, 0.5)),
        1 => FaultProfile::blackhole(),
        2 => FaultProfile::default().with_burst(BurstLoss {
            good_to_bad: rng.uniform(0.01, 0.3),
            bad_to_good: rng.uniform(0.05, 0.5),
            bad_loss_prob: rng.uniform(0.5, 1.0),
        }),
        _ => FaultProfile::default(),
    };
    if rng.chance(0.3) {
        p = p.with_jitter(SimDuration::from_micros(rng.uniform_u64(1, 5_000)));
    }
    if rng.chance(0.3) {
        p = p.with_duplication(rng.uniform(0.0, 0.3));
    }
    p
}

/// Randomized op soup: interleaved sends, partitions/heals, per-link and
/// default profile churn, flapping links, and full clears — sparse and
/// dense must agree on every verdict and every counter, at every step.
#[test]
fn sparse_matches_dense_reference_across_random_ops() {
    for seed in 0..24u64 {
        let mut meta = SimRng::seed_from(0x5EED_0000 + seed);
        let chaos_seed = meta.next_u64();
        let mut sparse = Network::new(config());
        let mut dense = DenseNet::new(config(), FaultTopology::flat(0));
        sparse.reseed_chaos(chaos_seed);
        dense.reseed_chaos(chaos_seed);
        // Mostly-small id pool (dense matrices stay affordable) with
        // occasional growth spurts to exercise regrowth on both sides.
        let machines = meta.uniform_u64(2, 80) as u32;
        let mut now = SimTime::ZERO;
        for step in 0..2_500u64 {
            now += SimDuration::from_micros(meta.uniform_u64(0, 500));
            let src = MachineId(meta.uniform_u64(0, machines as u64) as u32);
            let dst = MachineId(meta.uniform_u64(0, machines as u64) as u32);
            match meta.uniform_u64(0, 100) {
                0..=69 => {
                    let bytes = meta.uniform_u64(1, 100_000);
                    let a = sparse.send(now, src, dst, bytes);
                    let b = dense.send(now, src, dst, bytes);
                    assert_eq!(a, b, "seed {seed} step {step}: {src} -> {dst}");
                }
                70..=77 => {
                    let cut = meta.chance(0.55);
                    sparse.set_partitioned(src, dst, cut);
                    dense.set_partitioned(src, dst, cut);
                    assert_eq!(
                        sparse.is_partitioned(dst, src),
                        dense.is_cut(dst, src),
                        "seed {seed} step {step}: partition state {src} <-> {dst}"
                    );
                }
                78..=85 => {
                    let p = random_profile(&mut meta);
                    sparse.set_link_faults(src, dst, p);
                    dense.set_link_faults(src, dst, p);
                }
                86..=91 => {
                    sparse.clear_link_faults(src, dst);
                    dense.clear_link_faults(src, dst);
                }
                92..=96 => {
                    let p = meta.chance(0.6).then(|| random_profile(&mut meta));
                    sparse.set_default_faults(p);
                    dense.set_default_faults(p);
                }
                97..=98 => {
                    // Flap: install, exercise, clear — burst state must
                    // reset identically on both sides.
                    let p = random_profile(&mut meta);
                    sparse.set_link_faults(src, dst, p);
                    dense.set_link_faults(src, dst, p);
                    let a = sparse.send(now, src, dst, 64);
                    let b = dense.send(now, src, dst, 64);
                    assert_eq!(a, b, "seed {seed} step {step}: flap send");
                    sparse.clear_link_faults(src, dst);
                    dense.clear_link_faults(src, dst);
                }
                _ => {
                    sparse.clear_all_faults();
                    dense.clear_all_faults();
                }
            }
            assert_eq!(
                sparse.profile_for(src, dst),
                if (src.0 as usize).max(dst.0 as usize) < dense.stride {
                    dense.faults[dense.link_idx(src, dst)].or(dense.default_faults)
                } else {
                    dense.default_faults
                },
                "seed {seed} step {step}: profile_for {src} -> {dst}"
            );
            assert_eq!(
                counters(&sparse),
                dense.counters(),
                "seed {seed} step {step}"
            );
        }
    }
}

/// Applies one network-visible chaos action to the dense reference.
fn apply_dense(dense: &mut DenseNet, action: ChaosAction) {
    match action {
        ChaosAction::LinkFaults { src, dst, profile } => dense.set_link_faults(src, dst, profile),
        ChaosAction::ClearLinkFaults { src, dst } => dense.clear_link_faults(src, dst),
        ChaosAction::DefaultFaults { profile } => dense.set_default_faults(profile),
        ChaosAction::Partition { a, b } => dense.set_partitioned(a, b, true),
        ChaosAction::Heal { a, b } => dense.set_partitioned(a, b, false),
        ChaosAction::PartitionSwitch { switch } => {
            dense.dark.insert(switch);
        }
        ChaosAction::HealSwitch { switch } => {
            dense.dark.remove(&switch);
        }
        // Machine-level actions (fail-stop, domain fail-stop) never touch
        // the network's link state.
        ChaosAction::FailStop { .. } | ChaosAction::FailDomain { .. } => {}
    }
}

/// Campaign-shaped equivalence: randomized [`ChaosPlan`]s built from the
/// fluent helpers (loss windows, link windows, partitions, flapping links,
/// switch partitions, domain fail-stops) replayed step by step against
/// both implementations with steady traffic in between.
#[test]
fn sparse_matches_dense_reference_across_chaos_plans() {
    let topo = FaultTopology::grid(48, 4, 3);
    for seed in 0..12u64 {
        let mut meta = SimRng::seed_from(0xCAFE_0000 + seed);
        let chaos_seed = meta.next_u64();
        let machines = topo.machines() as u64;
        let pick = |meta: &mut SimRng| MachineId(meta.uniform_u64(0, machines) as u32);

        let mut plan = ChaosPlan::new();
        for _ in 0..meta.uniform_u64(2, 7) {
            let from = SimTime::from_millis(meta.uniform_u64(0, 400));
            let until = from + SimDuration::from_millis(meta.uniform_u64(10, 300));
            match meta.uniform_u64(0, 6) {
                0 => {
                    let p = random_profile(&mut meta);
                    plan = plan.loss_window(from, until, p);
                }
                1 => {
                    let p = random_profile(&mut meta);
                    let (a, b) = (pick(&mut meta), pick(&mut meta));
                    plan = plan.link_window(from, until, a, b, p);
                }
                2 => {
                    let (a, b) = (pick(&mut meta), pick(&mut meta));
                    plan = plan.partition_window(from, until, a, b);
                }
                3 => {
                    let (a, b) = (pick(&mut meta), pick(&mut meta));
                    plan = plan.flapping_link(
                        from,
                        until,
                        SimDuration::from_millis(meta.uniform_u64(5, 40)),
                        a,
                        b,
                    );
                }
                4 => {
                    let s = SwitchId(meta.uniform_u64(0, topo.switch_count() as u64) as u32);
                    plan = plan.switch_partition_window(from, until, s);
                }
                _ => {
                    let rack =
                        sps_cluster::DomainId(meta.uniform_u64(0, topo.rack_count() as u64) as u32);
                    plan = plan.domain_fail_stop(from, rack);
                }
            }
        }
        let mut steps = plan.steps().to_vec();
        steps.sort_by_key(|s| s.at);

        // The sparse side is a real cluster applying the plan itself,
        // switch partitions included.
        let mut cluster: Cluster = Cluster::new(config());
        cluster.add_machines(topo.machines());
        cluster.set_topology(topo.clone());
        let sorted = steps
            .iter()
            .fold(ChaosPlan::new(), |p, s| p.step(s.at, s.action));
        cluster
            .install_chaos(&sorted, chaos_seed)
            .expect("plan fits");
        let mut dense = DenseNet::new(config(), topo.clone());
        dense.reseed_chaos(chaos_seed);
        let mut now = SimTime::ZERO;
        for (i, step) in steps.iter().enumerate() {
            // Traffic up to the step's instant...
            while now < step.at {
                now += SimDuration::from_micros(meta.uniform_u64(50, 2_000));
                let (src, dst) = (pick(&mut meta), pick(&mut meta));
                let bytes = meta.uniform_u64(1, 20_000);
                let a = cluster
                    .network_mut()
                    .send(now.min(step.at), src, dst, bytes);
                let b = dense.send(now.min(step.at), src, dst, bytes);
                assert_eq!(a, b, "seed {seed} before step {i}");
            }
            now = step.at;
            // ...then the chaos action itself.
            cluster.apply_chaos(i).expect("installed");
            apply_dense(&mut dense, step.action);
            assert_eq!(
                counters(cluster.network()),
                dense.counters(),
                "seed {seed} step {i}"
            );
        }
        // Drain traffic after the last step.
        for _ in 0..200 {
            now += SimDuration::from_micros(meta.uniform_u64(50, 2_000));
            let (src, dst) = (pick(&mut meta), pick(&mut meta));
            let a = cluster.network_mut().send(now, src, dst, 512);
            let b = dense.send(now, src, dst, 512);
            assert_eq!(a, b, "seed {seed} drain");
        }
        let sparse = cluster.network();
        assert_eq!(counters(sparse), dense.counters(), "seed {seed} final");
    }
}

/// Random sequences of pair and switch cuts and heals on a small grid,
/// with every pair's `is_partitioned` and every machine's
/// `domain_has_active_fault` checked after each step against a model that
/// keeps each cause once: a set of explicitly cut pairs and a set of dark
/// switches. Overlapping causes are the point: a heal of one must leave a
/// pair the other still cuts.
#[test]
fn cuts_compose_by_cause_across_random_cut_and_heal_sequences() {
    // 12 machines: racks of 2, 2 racks per switch, so switches s0..s2.
    let topo = FaultTopology::grid(12, 2, 2);
    let n = topo.machines() as u32;
    let switches = topo.switch_count() as u64;
    for seed in 0..64u64 {
        let mut meta = SimRng::seed_from(0xC0DE_0000 + seed);
        let pick = |meta: &mut SimRng| MachineId(meta.uniform_u64(0, n as u64) as u32);
        let mut plan = ChaosPlan::new();
        for _ in 0..40 {
            let action = match meta.uniform_u64(0, 4) {
                0 => ChaosAction::Partition {
                    a: pick(&mut meta),
                    b: pick(&mut meta),
                },
                1 => ChaosAction::Heal {
                    a: pick(&mut meta),
                    b: pick(&mut meta),
                },
                2 => ChaosAction::PartitionSwitch {
                    switch: SwitchId(meta.uniform_u64(0, switches) as u32),
                },
                _ => ChaosAction::HealSwitch {
                    switch: SwitchId(meta.uniform_u64(0, switches) as u32),
                },
            };
            plan = plan.step(SimTime::ZERO, action);
        }
        let mut cluster: Cluster = Cluster::new(config());
        cluster.add_machines(topo.machines());
        cluster.set_topology(topo.clone());
        cluster.install_chaos(&plan, 1).expect("plan fits");

        let mut explicit: BTreeSet<(MachineId, MachineId)> = BTreeSet::new();
        let mut dark: BTreeSet<SwitchId> = BTreeSet::new();
        let unordered = |a: MachineId, b: MachineId| (a.min(b), a.max(b));
        for (i, step) in plan.steps().iter().enumerate() {
            cluster.apply_chaos(i).expect("installed");
            match step.action {
                ChaosAction::Partition { a, b } => {
                    explicit.insert(unordered(a, b));
                }
                ChaosAction::Heal { a, b } => {
                    explicit.remove(&unordered(a, b));
                }
                ChaosAction::PartitionSwitch { switch } => {
                    dark.insert(switch);
                }
                ChaosAction::HealSwitch { switch } => {
                    dark.remove(&switch);
                }
                other => unreachable!("not generated: {other:?}"),
            }
            for a in (0..n).map(MachineId) {
                let dark_a = dark.contains(&topo.switch_of(a));
                assert_eq!(
                    cluster.domain_has_active_fault(a),
                    dark_a,
                    "seed {seed} step {i}: {a}'s domain"
                );
                for b in (0..n).map(MachineId) {
                    let (sa, sb) = (topo.switch_of(a), topo.switch_of(b));
                    let want = explicit.contains(&unordered(a, b))
                        || (sa != sb && (dark_a || dark.contains(&sb)));
                    assert_eq!(
                        cluster.network().is_partitioned(a, b),
                        want,
                        "seed {seed} step {i} ({:?}): {a} <-> {b}",
                        step.action
                    );
                }
            }
        }
    }
}
