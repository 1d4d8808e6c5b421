//! Randomized property tests for the detector state machines, driven by
//! seeded [`SimRng`] loops.

use sps_ha::{HbVerdict, HeartbeatMonitor, TrendPredictor};
use sps_sim::{SimRng, SimTime};

/// The miss streak equals the number of ticks since the last timely reply,
/// for arbitrary reply patterns.
#[test]
fn miss_streak_counts_unanswered_ticks() {
    let mut rng = SimRng::seed_from(0x517E);
    for _case in 0..48 {
        let n = rng.uniform_u64(1, 200);
        let replies: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut m = HeartbeatMonitor::new();
        let mut expected_streak = 0u32;
        for (i, &answered) in replies.iter().enumerate() {
            // A monitor that pings every round from round 1 sends round
            // `r` as sequence number `r`.
            let (seq, verdict) = m.tick(i as u64 + 1);
            assert_eq!(seq, i as u64 + 1, "sequence numbers are dense");
            if i == 0 {
                assert_eq!(verdict, HbVerdict::Ok, "nothing outstanding yet");
            } else {
                match verdict {
                    HbVerdict::Ok => assert_eq!(expected_streak, 0),
                    HbVerdict::Missed { streak } => assert_eq!(streak, expected_streak),
                }
            }
            if answered {
                m.pong(seq, seq);
                expected_streak = 0;
            } else {
                expected_streak += 1;
            }
        }
    }
}

/// Suspicion can only be cleared by a fresh post-suspicion pong; stale or
/// pre-suspicion pongs never clear it.
#[test]
fn suspicion_clears_only_on_fresh_evidence() {
    let mut rng = SimRng::seed_from(0x5E5E);
    for _case in 0..48 {
        let pre_ticks = rng.uniform_u64(1, 50);
        let gap = rng.uniform_u64(3, 50);
        let mut m = HeartbeatMonitor::new();
        let mut pre_seqs = Vec::new();
        for round in 1..=pre_ticks {
            pre_seqs.push(m.tick(round).0);
        }
        m.mark_suspected();
        // Some more pings go out while suspected.
        let mut post_seqs = Vec::new();
        for round in pre_ticks + 1..=pre_ticks + gap {
            post_seqs.push(m.tick(round).0);
        }
        // Every pre-suspicion pong is rejected.
        for &s in &pre_seqs {
            assert!(!m.pong(s, s), "pre-suspicion pong must not clear");
            assert!(m.is_suspected());
        }
        // An old post-suspicion pong (answered seconds late) is rejected...
        assert!(
            !m.pong(post_seqs[0], post_seqs[0]),
            "stale post-suspicion pong"
        );
        // ...but a reply to one of the latest two pings clears it.
        let last = *post_seqs.last().unwrap();
        assert!(m.pong(last, last));
        assert!(!m.is_suspected());
    }
}

/// The trend predictor never declares while loads stay below its floor, for
/// arbitrary sub-floor sample streams.
#[test]
fn predictor_quiet_below_floor() {
    let mut rng = SimRng::seed_from(0xF100);
    for _case in 0..32 {
        let n = rng.uniform_u64(1, 300);
        let mut p = TrendPredictor::default();
        for i in 0..n {
            let load = rng.uniform(0.0, 0.49);
            let declared = p.on_sample(SimTime::from_millis(i * 50), load);
            assert!(!declared, "sample {i} at load {load} declared");
        }
        assert_eq!(p.declarations(), 0);
    }
}

/// A saturated stream declares as soon as the 8-sample regression window
/// fills, and not before.
#[test]
fn predictor_declares_on_saturation() {
    let mut p = TrendPredictor::default();
    let declared: Vec<bool> = (0..10u64)
        .map(|i| p.on_sample(SimTime::from_millis(i * 50), 1.0))
        .collect();
    let first = declared.iter().position(|&d| d);
    assert_eq!(first, Some(7), "flat saturation projects to >= threshold");
}
