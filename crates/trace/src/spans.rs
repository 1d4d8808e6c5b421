//! Recovery-cycle span decomposition of the control-plane phase log.

use std::collections::BTreeMap;

use sps_sim::SimTime;

use crate::event::RecoveryPhase;
use crate::sink::PhaseRecord;

/// One labelled interval of a recovery cycle, with sim-time bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpan {
    /// Which subjob the cycle belongs to.
    pub subjob: u32,
    /// Which recovery cycle of that subjob (0-based; a new cycle starts at
    /// each `Detected` after the first phase of the previous cycle).
    pub cycle: u32,
    /// Span start (exclusive boundary of the previous span).
    pub start: SimTime,
    /// Span end — the phase event that closes the span.
    pub end: SimTime,
    /// The phase boundary that closes the span.
    pub phase: RecoveryPhase,
}

impl RecoverySpan {
    /// Span length in milliseconds.
    pub fn millis(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Decompose a phase log into per-subjob recovery spans.
///
/// Each phase event closes one span that starts at the previous phase
/// event of the same subjob (or at `origin` — typically the failure
/// injection time — for the first). By construction the spans of one
/// subjob are monotone and non-overlapping.
///
/// Spans are folded by identity `(subjob, cycle, phase)`: a `Detected`
/// after any earlier phase opens a new cycle, and a phase that fires twice
/// within one cycle — e.g. a Hybrid rollback aborting mid-switch-over and
/// re-closing `SwitchoverComplete` when the chaos window re-fails the
/// primary — extends the existing span instead of double-counting it as a
/// second one.
pub fn recovery_spans(phases: &[PhaseRecord], origin: SimTime) -> Vec<RecoverySpan> {
    /// Per-subjob fold state: current cycle, last boundary time, and a
    /// bitmask of phases already closed within the current cycle.
    struct SubjobFold {
        cycle: u32,
        last: SimTime,
        seen: u16,
    }
    let mut state: BTreeMap<u32, SubjobFold> = BTreeMap::new();
    let mut spans: Vec<RecoverySpan> = Vec::with_capacity(phases.len());
    for p in phases {
        let e = state.entry(p.subjob).or_insert(SubjobFold {
            cycle: 0,
            last: origin,
            seen: 0,
        });
        if p.phase == RecoveryPhase::Detected && e.seen != 0 {
            e.cycle += 1;
            e.seen = 0;
        }
        let bit = 1u16 << (p.phase as u16);
        if e.seen & bit != 0 {
            // Duplicate close within this cycle: fold into the existing
            // span (extend its end) rather than emitting a second one.
            if let Some(s) = spans
                .iter_mut()
                .rev()
                .find(|s| s.subjob == p.subjob && s.cycle == e.cycle && s.phase == p.phase)
            {
                s.end = p.at;
            }
            e.last = p.at;
            continue;
        }
        e.seen |= bit;
        spans.push(RecoverySpan {
            subjob: p.subjob,
            cycle: e.cycle,
            start: e.last,
            end: p.at,
            phase: p.phase,
        });
        e.last = p.at;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(at_ms: u64, subjob: u32, phase: RecoveryPhase) -> PhaseRecord {
        PhaseRecord {
            at: SimTime::from_millis(at_ms),
            subjob,
            phase,
        }
    }

    #[test]
    fn spans_chain_per_subjob_and_are_monotone() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            phase(150, 1, RecoveryPhase::SwitchoverComplete),
            phase(400, 1, RecoveryPhase::RollbackStarted),
            phase(460, 1, RecoveryPhase::RollbackComplete),
        ];
        let spans = recovery_spans(&phases, SimTime::from_millis(40));
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start, SimTime::from_millis(40));
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "spans chain without gaps");
            assert!(w[0].start <= w[0].end);
        }
        assert!((spans[0].millis() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn spans_of_different_subjobs_are_independent() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            phase(120, 2, RecoveryPhase::Detected),
            phase(300, 2, RecoveryPhase::PsDeployed),
            phase(150, 1, RecoveryPhase::SwitchoverComplete),
        ];
        let spans = recovery_spans(&phases, SimTime::ZERO);
        let sj1: Vec<_> = spans.iter().filter(|s| s.subjob == 1).collect();
        assert_eq!(sj1[1].start, SimTime::from_millis(100));
        let sj2: Vec<_> = spans.iter().filter(|s| s.subjob == 2).collect();
        assert_eq!(sj2[1].start, SimTime::from_millis(120));
    }

    /// Regression for the Hybrid abort double-count: when the chaos window
    /// re-fails the primary mid-switch-over, the cycle re-detects and the
    /// `SwitchoverComplete` span used to be closed twice, inflating the
    /// switch-over total. Folding by `(subjob, cycle, phase)` keeps one
    /// span per identity and extends its end instead.
    #[test]
    fn aborted_switchover_folds_duplicate_spans_by_id() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            // Silent abort (fresh pong mid-switch-over), then re-detection:
            phase(150, 1, RecoveryPhase::Detected),
            phase(200, 1, RecoveryPhase::SwitchoverComplete),
            // Overlapping chaos window closes the same phase again:
            phase(210, 1, RecoveryPhase::SwitchoverComplete),
            phase(400, 1, RecoveryPhase::RollbackStarted),
        ];
        let spans = recovery_spans(&phases, SimTime::from_millis(40));
        assert_eq!(spans.len(), 4, "duplicate close folds, it does not add");
        assert_eq!(spans[0].cycle, 0);
        assert!(spans[1..].iter().all(|s| s.cycle == 1));
        let switchovers: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == RecoveryPhase::SwitchoverComplete)
            .collect();
        assert_eq!(switchovers.len(), 1, "one switch-over span per cycle");
        assert_eq!(switchovers[0].start, SimTime::from_millis(150));
        assert_eq!(
            switchovers[0].end,
            SimTime::from_millis(210),
            "folded span extends to the last duplicate close"
        );
        // The next span still chains from the folded end.
        assert_eq!(spans[3].start, SimTime::from_millis(210));
        assert_eq!(spans[3].phase, RecoveryPhase::RollbackStarted);
    }
}
