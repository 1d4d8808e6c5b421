//! Randomized property tests for the cluster substrate, driven by seeded
//! [`SimRng`] loops.

use sps_cluster::{
    Delivery, Dist, LoadComponent, Machine, MachineId, Network, NetworkConfig, SpikeProfile,
};
use sps_sim::{SimDuration, SimRng, SimTime};

/// Work conservation: completed application work never exceeds capacity ×
/// elapsed time, under arbitrary submit / load-change sequences; and every
/// task completes if we wait long enough.
#[test]
fn machine_conserves_work() {
    let mut rng = SimRng::seed_from(0x3A3A);
    for _case in 0..24 {
        let ops = rng.uniform_u64(1, 60);
        let mut m = Machine::new(MachineId(0));
        let mut t = SimTime::ZERO;
        let mut submitted = 0.0;
        for i in 0..ops {
            let gap_us = rng.uniform_u64(0, 2_000);
            let work = rng.uniform(0.0001, 0.01);
            let bg = rng.uniform(0.0, 1.0);
            t += SimDuration::from_micros(gap_us);
            m.set_background(t, LoadComponent::Spike, bg);
            m.submit(t, work, i).expect("machine is up");
            submitted += work;
            m.collect_finished();
        }
        // Drain: clear background and run far into the future.
        m.set_background(t, LoadComponent::Spike, 0.0);
        let horizon = t + SimDuration::from_secs(3_600);
        m.advance(horizon);
        let done = m.collect_finished();
        assert!(m.work_done() <= horizon.as_secs_f64() + 1e-6);
        assert!(
            (m.work_done() - submitted).abs() < 1e-6,
            "all work eventually done"
        );
        assert_eq!(m.active_tasks(), 0);
        assert!(!done.is_empty());
    }
}

/// Processor sharing is fair: two equal tasks submitted together finish
/// together, regardless of background level.
#[test]
fn equal_tasks_finish_together() {
    let mut rng = SimRng::seed_from(0xFA1A);
    for _case in 0..64 {
        let work = rng.uniform(0.0001, 0.1);
        let bg = rng.uniform(0.0, 0.999);
        let mut m = Machine::new(MachineId(0));
        m.set_background(SimTime::ZERO, LoadComponent::Spike, bg);
        m.submit(SimTime::ZERO, work, 1).unwrap();
        m.submit(SimTime::ZERO, work, 2).unwrap();
        let t = m.next_completion().expect("tasks active");
        m.advance(t);
        assert_eq!(m.collect_finished().len(), 2);
    }
}

/// Higher background load never makes a task finish sooner.
#[test]
fn load_is_monotone() {
    let mut rng = SimRng::seed_from(0x10AD);
    for _case in 0..64 {
        let work = rng.uniform(0.001, 0.05);
        let lo = rng.uniform(0.0, 0.9);
        let delta = rng.uniform(0.0, 0.1);
        let run = |bg: f64| {
            let mut m = Machine::new(MachineId(0));
            m.set_background(SimTime::ZERO, LoadComponent::Spike, bg);
            m.submit(SimTime::ZERO, work, 0).unwrap();
            m.next_completion().unwrap()
        };
        assert!(run(lo + delta) >= run(lo));
    }
}

/// Network delivery is causal (never before now + latency) and per-link
/// FIFO (delivery times non-decreasing along a link).
#[test]
fn network_is_causal_and_fifo() {
    let mut rng = SimRng::seed_from(0xF1F0);
    for _case in 0..32 {
        let cfg = NetworkConfig::default();
        let latency = cfg.latency;
        let mut net = Network::new(cfg);
        let mut last = SimTime::ZERO;
        let now = SimTime::from_millis(5);
        for _ in 0..rng.uniform_u64(1, 50) {
            let bytes = rng.uniform_u64(1, 100_000);
            match net.send(now, MachineId(0), MachineId(1), bytes) {
                Delivery::At(t) => {
                    assert!(t >= now + latency, "acausal delivery");
                    assert!(t >= last, "link reordered messages");
                    last = t;
                }
                Delivery::Dropped | Delivery::Duplicated { .. } => {
                    panic!("no partitions or chaos configured")
                }
            }
        }
    }
}

/// Spike schedules are sorted, non-overlapping, within the horizon, and
/// duty-cycle profiles land near their target fraction.
#[test]
fn spike_schedules_are_well_formed() {
    let mut outer = SimRng::seed_from(0x59EC);
    for _case in 0..24 {
        let seed = outer.next_u64();
        let frac = outer.uniform(0.05, 0.8);
        let profile = SpikeProfile::duty_cycle(frac, SimDuration::from_secs(5));
        let mut rng = SimRng::seed_from(seed);
        let horizon = SimTime::from_secs(50_000);
        let windows = profile.generate(&mut rng, horizon);
        for pair in windows.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        let on: f64 = windows.iter().map(|w| w.duration().as_secs_f64()).sum();
        let measured = on / horizon.as_secs_f64();
        assert!(
            (measured - frac).abs() < 0.1,
            "duty {measured} target {frac}"
        );
    }
}

/// Distribution samples are non-negative.
#[test]
fn dist_support() {
    let mut outer = SimRng::seed_from(0xD15B);
    for _case in 0..32 {
        let mut rng = SimRng::seed_from(outer.next_u64());
        for d in [Dist::Exp { mean: 1.0 }, Dist::Uniform { lo: 0.5, hi: 2.0 }] {
            for _ in 0..16 {
                assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }
}
