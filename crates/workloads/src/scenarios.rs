//! Ready-made jobs, placements, and failure loads for the paper's
//! experiments and the example applications.

use sps_cluster::{Dist, MachineId, SpikeProfile, SpikeWindow};
use sps_engine::{AggKind, Job, JobBuilder, OperatorSpec};
use sps_ha::Placement;
use sps_sim::{SimDuration, SimRng, SimTime};

/// The paper's evaluation job (§V-A): 8 synthetic PEs in a chain, divided
/// into 4 subjobs of 2 PEs, selectivity 1.
pub fn eval_chain_job() -> Job {
    Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4)
}

/// A chain job with a custom per-element CPU demand and state size.
pub fn chain_job_with(
    demand_secs: f64,
    state_elements: u64,
    n_pes: usize,
    n_subjobs: usize,
) -> Job {
    Job::chain(
        "eval",
        &OperatorSpec::Synthetic {
            selectivity: 1.0,
            demand_secs,
            state_elements,
        },
        n_pes,
        n_subjobs,
    )
}

/// A market-data pipeline for the financial example: parse → filter →
/// VWAP aggregate → sanity counter, in two subjobs.
pub fn financial_job(vwap_window: u64) -> Job {
    let mut b = JobBuilder::new("financial");
    let feed = b.add_source("tick-feed");
    let out = b.add_sink("trading-desk");
    let parse = b.add_pe(
        "parse",
        OperatorSpec::Map {
            scale: 1.0,
            offset: 0.0,
            demand_secs: 0.000_2,
        },
    );
    let filter = b.add_pe(
        "filter-outliers",
        OperatorSpec::Filter {
            min_value: 1.0,
            demand_secs: 0.000_1,
        },
    );
    let vwap = b.add_pe(
        "vwap",
        OperatorSpec::Vwap {
            window: vwap_window,
            demand_secs: 0.000_4,
        },
    );
    let count = b.add_pe(
        "audit-count",
        OperatorSpec::Counter {
            demand_secs: 0.000_1,
        },
    );
    b.connect_source(feed, parse, 0);
    b.connect(parse, 0, filter, 0);
    b.connect(filter, 0, vwap, 0);
    b.connect(vwap, 0, count, 0);
    b.connect_sink(count, 0, out);
    b.subjobs(vec![vec![parse, filter], vec![vwap, count]]);
    b.build().expect("financial topology is valid")
}

/// A traffic-monitoring pipeline for the bursty example: per-camera counts
/// over tumbling windows, then a max detector.
pub fn traffic_job(window: u64) -> Job {
    let mut b = JobBuilder::new("traffic");
    let cams = b.add_source("cameras");
    let out = b.add_sink("control-room");
    let decode = b.add_pe(
        "decode",
        OperatorSpec::Map {
            scale: 1.0,
            offset: 0.0,
            demand_secs: 0.000_5,
        },
    );
    let agg = b.add_pe(
        "window-count",
        OperatorSpec::WindowAggregate {
            window,
            agg: AggKind::Count,
            demand_secs: 0.000_3,
        },
    );
    let peak = b.add_pe(
        "peak",
        OperatorSpec::WindowAggregate {
            window: 4,
            agg: AggKind::Max,
            demand_secs: 0.000_1,
        },
    );
    b.connect_source(cams, decode, 0);
    b.connect(decode, 0, agg, 0);
    b.connect(agg, 0, peak, 0);
    b.connect_sink(peak, 0, out);
    b.subjobs(vec![vec![decode], vec![agg, peak]]);
    b.build().expect("traffic topology is valid")
}

/// A tree-shaped job (two branches joined), exercising the §VII extension.
pub fn tree_job() -> Job {
    let mut b = JobBuilder::new("tree");
    let left = b.add_source("left-feed");
    let right = b.add_source("right-feed");
    let out = b.add_sink("out");
    let la = b.add_pe(
        "left-map",
        OperatorSpec::Map {
            scale: 2.0,
            offset: 0.0,
            demand_secs: 0.000_3,
        },
    );
    let ra = b.add_pe(
        "right-map",
        OperatorSpec::Map {
            scale: 0.5,
            offset: 1.0,
            demand_secs: 0.000_3,
        },
    );
    let join = b.add_pe(
        "merge-count",
        OperatorSpec::Counter {
            demand_secs: 0.000_2,
        },
    );
    b.connect_source(left, la, 0);
    b.connect_source(right, ra, 0);
    b.connect(la, 0, join, 0);
    b.connect(ra, 0, join, 1);
    b.connect_sink(join, 0, out);
    b.subjobs(vec![vec![la], vec![ra], vec![join]]);
    b.build().expect("tree topology is valid")
}

/// A fan-out whose one stream feeds a PE in another subjob and a PE in
/// its own: source → split → {remote, local} → two sinks, with split and
/// local in subjob 0 and remote alone in subjob 1. The split's output
/// queue holds both kinds of link — a cross-subjob edge to every copy of
/// remote and a same-replica pipe to local — and lists the cross-subjob
/// consumer first. Both branches have selectivity 1.
pub fn mixed_fanout_job() -> Job {
    let mut b = JobBuilder::new("mixed-fanout");
    let src = b.add_source("src");
    let remote_out = b.add_sink("remote-out");
    let local_out = b.add_sink("local-out");
    let split = b.add_pe(
        "split",
        OperatorSpec::Map {
            scale: 1.0,
            offset: 0.0,
            demand_secs: 0.000_2,
        },
    );
    let remote = b.add_pe(
        "remote-count",
        OperatorSpec::Counter {
            demand_secs: 0.000_2,
        },
    );
    let local = b.add_pe(
        "local-map",
        OperatorSpec::Map {
            scale: 2.0,
            offset: 0.0,
            demand_secs: 0.000_2,
        },
    );
    b.connect_source(src, split, 0);
    b.connect(split, 0, remote, 0);
    b.connect(split, 0, local, 0);
    b.connect_sink(remote, 0, remote_out);
    b.connect_sink(local, 0, local_out);
    b.subjobs(vec![vec![split, local], vec![remote]]);
    b.build().expect("mixed fan-out topology is valid")
}

/// The Fig 5 placement: the given subjobs share one secondary machine
/// ("allow multiple primary machines to share one secondary machine").
pub fn multiplexed_placement(job: &Job, shared_subjobs: &[u32]) -> Placement {
    let mut p = Placement::default_for(job);
    if let Some(&first) = shared_subjobs.first() {
        let shared = p.secondaries[first as usize].expect("subjob has a secondary");
        for &sj in shared_subjobs {
            p.secondaries[sj as usize] = Some(shared);
        }
    }
    p
}

/// The §V-B failure load: spikes that keep a machine under failure for
/// `fraction` of the time with the given mean duration. `share` is the CPU
/// share the background program itself consumes: the paper's delay
/// experiments push a ~60 %-loaded machine to 95–100 % *total* CPU, i.e., a
/// spike share around 0.35–0.45 (see [`marginal_spike_share`]); its
/// recovery experiments overload the machine outright (share ≈ 1).
pub fn failure_load(
    fraction: f64,
    mean_duration: SimDuration,
    share: Dist,
    horizon: SimTime,
    rng: &mut SimRng,
) -> Vec<SpikeWindow> {
    let mut profile = SpikeProfile::duty_cycle(fraction, mean_duration);
    profile.share = share;
    profile.generate(rng, horizon)
}

/// The spike share that pushes a machine already running `app_load` of
/// application work to full saturation and slightly beyond (total demand
/// 1.00–1.12) — the paper's §V-B failure severity ("the overall CPU usage
/// is increased from 60% to 95%–100%"; on its 4-core testbed that leaves
/// the application starved of its share, which a single-capacity machine
/// models as a mild oversubscription).
pub fn marginal_spike_share(app_load: f64) -> Dist {
    Dist::Uniform {
        lo: (1.00 - app_load).max(0.05),
        hi: (1.12 - app_load).max(0.10),
    }
}

/// A single controlled failure window (recovery-time experiments).
pub fn single_failure(start: SimTime, duration: SimDuration) -> Vec<SpikeWindow> {
    vec![SpikeWindow {
        start,
        end: start + duration,
        share: 1.0,
    }]
}

/// The default machine hosting a subjob's primary copy under
/// [`Placement::default_for`].
pub fn primary_machine_of(job: &Job, subjob: u32) -> MachineId {
    let _ = job;
    MachineId(subjob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::SubjobId;

    #[test]
    fn eval_job_matches_paper_shape() {
        let job = eval_chain_job();
        assert_eq!(job.pe_count(), 8);
        assert_eq!(job.subjob_count(), 4);
    }

    #[test]
    fn example_jobs_build() {
        assert_eq!(financial_job(16).pe_count(), 4);
        assert_eq!(traffic_job(8).pe_count(), 3);
        let tree = tree_job();
        assert_eq!(tree.pe_count(), 3);
        assert_eq!(tree.source_count(), 2);
    }

    #[test]
    fn multiplexed_placement_shares_one_machine() {
        let job = eval_chain_job();
        let p = multiplexed_placement(&job, &[0, 1, 2]);
        assert_eq!(p.secondaries[0], p.secondaries[1]);
        assert_eq!(p.secondaries[1], p.secondaries[2]);
        assert_ne!(p.secondaries[2], p.secondaries[3]);
        assert!(p.machine_count() >= 8);
    }

    #[test]
    fn failure_load_matches_fraction() {
        let mut rng = SimRng::seed_from(5);
        let horizon = SimTime::from_secs(10_000);
        let windows = failure_load(
            0.4,
            SimDuration::from_secs(5),
            marginal_spike_share(0.6),
            horizon,
            &mut rng,
        );
        let on: f64 = windows.iter().map(|w| w.duration().as_secs_f64()).sum();
        let frac = on / horizon.as_secs_f64();
        assert!((frac - 0.4).abs() < 0.05, "fraction {frac}");
        for w in &windows {
            assert!(
                (0.39..0.53).contains(&w.share),
                "marginal share {}",
                w.share
            );
        }
    }

    #[test]
    fn single_failure_is_one_full_spike() {
        let w = single_failure(SimTime::from_secs(2), SimDuration::from_secs(5));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].end, SimTime::from_secs(7));
        assert_eq!(w[0].share, 1.0);
    }

    #[test]
    fn subjob_partitions_are_consistent() {
        let job = financial_job(8);
        assert_eq!(job.subjob_of(sps_engine::PeId(0)), SubjobId(0));
        assert_eq!(job.subjob_of(sps_engine::PeId(2)), SubjobId(1));
    }
}
