//! # sps-audit — streaming protocol-invariant auditor for the hybrid-HA
//! simulator
//!
//! One checker core, two frontends:
//!
//! * **Online** — [`Auditor`] implements [`sps_trace::TraceProbe`] and is
//!   installed on the trace bus
//!   (`HaSimulationBuilder::trace_probe(Box::new(Auditor::new()))`). It
//!   observes the typed control-plane event stream in sim time and derives
//!   [`TraceEvent::AuditViolation`] records, which the bus fans back out to
//!   the installed sinks so violations land in flight-recorder dumps next
//!   to their causes.
//! * **Offline** — [`replay_dump`] feeds a recorded JSONL dump through the
//!   *same* [`Auditor`], so `sps-inspect audit <trace.jsonl>` re-derives
//!   exactly the report the online probe produced (byte-identical when the
//!   dump retained the full control-plane stream).
//!
//! ## Invariant catalog
//!
//! | invariant | checked on | violation means |
//! |---|---|---|
//! | `sink_exactly_once` | `sink_deliver` | a sink accepted without advancing its processed position (duplicate double-count), or the position regressed |
//! | `sink_seq_gap` | end of run | a lossless, quiescent run left a hole below the highest sequence a sink saw |
//! | `ckpt_ack_order` | `ack_sent` | a checkpoint-acked primary acknowledged a position no stored checkpoint covers (§III-B ordering) |
//! | `epoch_regression` | `epoch_change` | a subjob's recovery epoch failed to advance |
//! | `split_brain` | `epoch_change` | two different primaries claimed the same epoch of one subjob |
//! | `illegal_phase` | `recovery` | a recovery-phase transition outside the subjob's HA-mode state machine |
//! | `retransmit_reflag` | `retransmit` | a reliable-transfer retry attempt number failed to increase (flagged twice) |
//! | `standby_coverage` | end of run | a failover consumed a standby and the run ended with the subjob neither re-provisioned nor its dead-end declared |
//! | `domain_disjoint` | `standby_provision` | a fresh standby landed in the primary's fault domain on a non-flat topology |
//! | `stream_complete` | `stream_final` | a lossless, quiescent run ended with a stream's serving consumers short of what its producers produced |
//!
//! `ckpt_ack_order` sees only the acks the simulator taps. Online,
//! `ack_sent` is emitted only by the store-ack handler, straight after the
//! `checkpoint_covered` with the same `(pe, replica, stream, seq)`, so it
//! cannot fire on a live run, only on an edited dump (a trace mutation of
//! the kind the replay canaries make). Processing-time acks and the
//! reliable layer's duplicate re-acks carry no `ack_sent`.
//!
//! The auditor is strictly read-only observation: it sees copies of records
//! and cannot touch the event schedule, so installing it never perturbs a
//! run (`crates/bench/tests/goldens.rs` byte-compares campaign output with
//! and without it).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use sps_sim::SimTime;
use sps_trace::{
    AuditInvariant, EpochCause, HaModeTag, RecoveryPhase, TraceEvent, TraceProbe, TraceRecord,
};

mod replay;

pub use replay::{replay_dump, FirstViolation, ReplayOutcome};

/// How many violations keep their full detail line (the totals always
/// count everything).
const DETAIL_CAP: usize = 16;

/// One derived violation, with enough identity to render and backtrace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Sim time the violation was derived at (for end-of-run liveness
    /// checks: the time of the last audited record).
    pub at: SimTime,
    /// Which invariant failed.
    pub invariant: AuditInvariant,
    /// The subjob involved (`u32::MAX` when not subjob-scoped).
    pub subjob: u32,
    /// The entity involved (sink, PE, or machine index, per invariant).
    pub entity: u32,
    /// The sequence/id involved (stream position, epoch, or transfer id).
    pub seq: u64,
    /// Invariant-specific context (previous position/epoch/phase code).
    pub detail: u64,
}

impl Violation {
    /// The deterministic one-line rendering used in reports and by
    /// `sps-inspect audit`.
    pub fn render(&self) -> String {
        format!(
            "t={:.6} {} subjob={} entity={} seq={} detail={}",
            self.at.as_secs_f64(),
            self.invariant.as_str(),
            self.subjob,
            self.entity,
            self.seq,
            self.detail
        )
    }
}

/// Per-`(sink, stream)` delivery state.
#[derive(Debug, Default, Clone, Copy)]
struct SinkState {
    processed_through: u64,
    max_seen: u64,
}

/// Run-shape expectations from the trace preamble.
#[derive(Debug, Default, Clone, Copy)]
struct Meta {
    subjobs: u32,
    flat: bool,
    lossless: bool,
    quiescent: bool,
}

/// The streaming protocol auditor. See the crate docs for the invariant
/// catalog; construct with [`Auditor::new`], install as a trace probe (or
/// drive it through [`replay_dump`]), and read [`TraceProbe::report`] after
/// [`TraceProbe::finish`].
#[derive(Debug, Default)]
pub struct Auditor {
    meta: Option<Meta>,
    modes: BTreeMap<u32, HaModeTag>,
    sinks: BTreeMap<(u32, u32), SinkState>,
    covered: BTreeMap<(u32, u8, u32), u64>,
    epochs: BTreeMap<u32, (u64, u32, u8)>,
    last_phase: BTreeMap<u32, RecoveryPhase>,
    tx_attempts: BTreeMap<u64, u32>,
    pending_coverage: BTreeSet<u32>,
    counts: [u64; AuditInvariant::ALL.len()],
    detail: Vec<Violation>,
    events_audited: u64,
    last_at: SimTime,
    finished: bool,
}

/// Numeric code of a recovery phase (used in `detail` fields: previous
/// phase + 1, with 0 meaning "none yet").
fn phase_code(phase: Option<RecoveryPhase>) -> u64 {
    match phase {
        None => 0,
        Some(RecoveryPhase::Detected) => 1,
        Some(RecoveryPhase::SwitchoverComplete) => 2,
        Some(RecoveryPhase::RollbackStarted) => 3,
        Some(RecoveryPhase::RollbackComplete) => 4,
        Some(RecoveryPhase::PsDeployed) => 5,
        Some(RecoveryPhase::PsConnected) => 6,
        Some(RecoveryPhase::Promoted) => 7,
        Some(RecoveryPhase::SecondaryReady) => 8,
    }
}

/// Whether `next` is a legal recovery-phase transition from `prev` under
/// `mode` — the per-mode DFA distilled from the failover protocol:
/// `None` emits no phases; `Active` only re-provisions standbys; `Passive`
/// runs the detect → deploy → connect migration; `Hybrid` adds the
/// switch-over / rollback / promotion cycle and both repair paths.
/// "Any previous phase" entries cover cycles restarted by a mid-incident
/// standby loss, which resets the subjob without a phase record.
pub fn phase_legal(mode: HaModeTag, prev: Option<RecoveryPhase>, next: RecoveryPhase) -> bool {
    use RecoveryPhase as P;
    match mode {
        HaModeTag::None => false,
        HaModeTag::Active => matches!(next, P::SecondaryReady),
        HaModeTag::Passive => match next {
            P::Detected => true,
            P::PsDeployed => prev == Some(P::Detected),
            P::PsConnected => prev == Some(P::PsDeployed),
            _ => false,
        },
        HaModeTag::Hybrid => match next {
            P::Detected => true,
            P::SwitchoverComplete => prev == Some(P::Detected),
            P::RollbackStarted => prev == Some(P::SwitchoverComplete),
            P::RollbackComplete => prev == Some(P::RollbackStarted),
            P::Promoted => matches!(prev, Some(P::SwitchoverComplete | P::RollbackStarted)),
            P::PsDeployed => true,
            P::PsConnected => prev == Some(P::PsDeployed),
            P::SecondaryReady => true,
        },
    }
}

impl Auditor {
    /// A fresh auditor with no expectations (they arrive with the trace
    /// preamble's `audit_meta` record).
    pub fn new() -> Self {
        Self::default()
    }

    /// All violations whose detail was retained (capped at a fixed number;
    /// the per-invariant totals count everything).
    pub fn violations(&self) -> &[Violation] {
        &self.detail
    }

    /// Total violations across all invariants.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    // Parameter lists mirror the event payloads on purpose.
    #[allow(clippy::too_many_arguments)]
    fn flag(
        &mut self,
        at: SimTime,
        invariant: AuditInvariant,
        subjob: u32,
        entity: u32,
        seq: u64,
        detail: u64,
        out: &mut Vec<TraceRecord>,
    ) {
        let idx = AuditInvariant::ALL
            .iter()
            .position(|i| *i == invariant)
            .expect("invariant in ALL");
        self.counts[idx] += 1;
        if self.detail.len() < DETAIL_CAP {
            self.detail.push(Violation {
                at,
                invariant,
                subjob,
                entity,
                seq,
                detail,
            });
        }
        out.push(TraceRecord {
            at,
            event: TraceEvent::AuditViolation {
                invariant,
                subjob,
                entity,
                seq,
                detail,
            },
        });
    }

    // Parameter lists mirror the event payloads on purpose.
    #[allow(clippy::too_many_arguments)]
    fn on_sink_deliver(
        &mut self,
        at: SimTime,
        sink: u32,
        stream: u32,
        seq_end: u64,
        newly_accepted: u32,
        processed_through: u64,
        out: &mut Vec<TraceRecord>,
    ) {
        let st = self.sinks.entry((sink, stream)).or_default();
        let prev = st.processed_through;
        st.max_seen = st.max_seen.max(seq_end);
        st.processed_through = prev.max(processed_through);
        if processed_through < prev {
            // The cumulative position can never move backwards.
            self.flag(
                at,
                AuditInvariant::SinkExactlyOnce,
                u32::MAX,
                sink,
                processed_through,
                prev,
                out,
            );
        } else if newly_accepted > 0 && processed_through == prev {
            // Accepting without advancing the position is the signature of
            // a duplicate counted twice (receiver dedup bypassed).
            self.flag(
                at,
                AuditInvariant::SinkExactlyOnce,
                u32::MAX,
                sink,
                processed_through,
                prev,
                out,
            );
        }
    }

    // Parameter lists mirror the event payloads on purpose.
    #[allow(clippy::too_many_arguments)]
    fn on_epoch_change(
        &mut self,
        at: SimTime,
        subjob: u32,
        epoch: u64,
        cause: EpochCause,
        primary_machine: u32,
        primary_replica: u8,
        out: &mut Vec<TraceRecord>,
    ) {
        if let Some(&(prev_epoch, prev_machine, prev_replica)) = self.epochs.get(&subjob) {
            if cause != EpochCause::Init && epoch <= prev_epoch {
                let same_primary =
                    (primary_machine, primary_replica) == (prev_machine, prev_replica);
                let invariant = if epoch == prev_epoch && !same_primary {
                    // Two different primaries claiming one epoch of one
                    // subjob: both copies would serve simultaneously.
                    AuditInvariant::SplitBrain
                } else {
                    AuditInvariant::EpochRegression
                };
                self.flag(
                    at,
                    invariant,
                    subjob,
                    primary_machine,
                    epoch,
                    prev_epoch,
                    out,
                );
            }
        }
        self.epochs
            .insert(subjob, (epoch, primary_machine, primary_replica));
        // These causes consume or lose the standby: the protocol must
        // either re-provision one or declare the dead-end before the run
        // ends (checked at `finish` when the run is quiescent).
        if matches!(
            cause,
            EpochCause::PsConnect
                | EpochCause::Promote
                | EpochCause::SpareRedeploy
                | EpochCause::StandbyLost
        ) {
            self.pending_coverage.insert(subjob);
        }
    }

    fn on_recovery(
        &mut self,
        at: SimTime,
        subjob: u32,
        phase: RecoveryPhase,
        out: &mut Vec<TraceRecord>,
    ) {
        let prev = self.last_phase.get(&subjob).copied();
        if let Some(&mode) = self.modes.get(&subjob) {
            if !phase_legal(mode, prev, phase) {
                self.flag(
                    at,
                    AuditInvariant::IllegalPhase,
                    subjob,
                    phase_code(Some(phase)) as u32,
                    0,
                    phase_code(prev),
                    out,
                );
            }
        }
        self.last_phase.insert(subjob, phase);
    }

    // Parameter lists mirror the event payloads on purpose.
    #[allow(clippy::too_many_arguments)]
    fn on_standby_provision(
        &mut self,
        at: SimTime,
        subjob: u32,
        machine: u32,
        fresh: bool,
        primary_domain: u32,
        standby_domain: u32,
        out: &mut Vec<TraceRecord>,
    ) {
        if machine != u32::MAX {
            self.pending_coverage.remove(&subjob);
        }
        let flat = self.meta.map(|m| m.flat).unwrap_or(true);
        if !flat
            && fresh
            && machine != u32::MAX
            && primary_domain != u32::MAX
            && primary_domain == standby_domain
        {
            self.flag(
                at,
                AuditInvariant::DomainDisjoint,
                subjob,
                machine,
                0,
                primary_domain as u64,
                out,
            );
        }
    }
}

impl TraceProbe for Auditor {
    fn observe(&mut self, record: &TraceRecord, out: &mut Vec<TraceRecord>) {
        let at = record.at;
        match record.event {
            TraceEvent::AuditMeta {
                subjobs,
                flat,
                lossless,
                quiescent,
            } => {
                self.meta = Some(Meta {
                    subjobs,
                    flat,
                    lossless,
                    quiescent,
                });
            }
            TraceEvent::SubjobMeta { subjob, mode } => {
                self.modes.insert(subjob, mode);
            }
            TraceEvent::SinkDeliver {
                sink,
                stream,
                seq_end,
                newly_accepted,
                processed_through,
                ..
            } => {
                self.on_sink_deliver(
                    at,
                    sink,
                    stream,
                    seq_end,
                    newly_accepted,
                    processed_through,
                    out,
                );
            }
            TraceEvent::CheckpointCovered {
                pe,
                replica,
                stream,
                seq,
            } => {
                let entry = self.covered.entry((pe, replica, stream)).or_insert(0);
                *entry = (*entry).max(seq);
            }
            TraceEvent::AckSent {
                pe,
                replica,
                stream,
                seq,
            } => {
                let covered = self
                    .covered
                    .get(&(pe, replica, stream))
                    .copied()
                    .unwrap_or(0);
                if seq > covered {
                    // §III-B: a checkpoint-acked primary may only trim
                    // upstream past positions a stored checkpoint covers.
                    self.flag(
                        at,
                        AuditInvariant::CkptAckOrder,
                        u32::MAX,
                        pe,
                        seq,
                        covered,
                        out,
                    );
                }
            }
            TraceEvent::EpochChange {
                subjob,
                epoch,
                cause,
                primary_machine,
                primary_replica,
            } => {
                self.on_epoch_change(
                    at,
                    subjob,
                    epoch,
                    cause,
                    primary_machine,
                    primary_replica,
                    out,
                );
            }
            TraceEvent::Recovery { subjob, phase } => {
                self.on_recovery(at, subjob, phase, out);
            }
            TraceEvent::FailoverAborted { subjob, .. } => {
                // A declared dead-end: redundancy loss is observable, so
                // standby coverage is discharged.
                self.pending_coverage.remove(&subjob);
            }
            TraceEvent::StandbyProvision {
                subjob,
                machine,
                fresh,
                primary_domain,
                standby_domain,
            } => {
                self.on_standby_provision(
                    at,
                    subjob,
                    machine,
                    fresh,
                    primary_domain,
                    standby_domain,
                    out,
                );
            }
            TraceEvent::Retransmit {
                dst, tx, attempt, ..
            } => {
                let prev = self.tx_attempts.get(&tx).copied();
                if let Some(prev) = prev {
                    if attempt <= prev {
                        self.flag(
                            at,
                            AuditInvariant::RetransmitReflag,
                            u32::MAX,
                            dst,
                            tx,
                            prev as u64,
                            out,
                        );
                    }
                }
                let entry = self.tx_attempts.entry(tx).or_insert(0);
                *entry = (*entry).max(attempt);
            }
            TraceEvent::StreamFinal {
                stream,
                last_seq,
                processed,
            } => {
                let meta = self.meta.unwrap_or_default();
                if meta.lossless && meta.quiescent && processed < last_seq {
                    // The run promised every element through and a drained
                    // end state, yet a stream stopped short: its consumers
                    // wait on elements no producer will send again.
                    self.flag(
                        at,
                        AuditInvariant::StreamComplete,
                        u32::MAX,
                        stream,
                        processed,
                        last_seq,
                        out,
                    );
                }
            }
            // Everything else — data-plane traffic, checkpoint lifecycle,
            // heartbeats, health verdicts, and (on replay) previously
            // recorded audit violations — is not an audited kind. Skipping
            // them here keeps the online and offline frontends' audited
            // event counts (and thus reports) identical.
            _ => return,
        }
        self.events_audited += 1;
        self.last_at = self.last_at.max(at);
    }

    fn finish(&mut self, out: &mut Vec<TraceRecord>) {
        if self.finished {
            return;
        }
        self.finished = true;
        let meta = self.meta.unwrap_or_default();
        let at = self.last_at;
        if meta.lossless && meta.quiescent {
            let states: Vec<((u32, u32), SinkState)> =
                self.sinks.iter().map(|(&k, &v)| (k, v)).collect();
            for ((sink, stream), st) in states {
                if st.processed_through < st.max_seen {
                    // The run promised losslessness and a drained end state,
                    // yet a hole remains below the highest delivered seq.
                    self.flag(
                        at,
                        AuditInvariant::SinkSeqGap,
                        stream,
                        sink,
                        st.processed_through,
                        st.max_seen,
                        out,
                    );
                }
            }
        }
        if meta.quiescent {
            let pending: Vec<u32> = self.pending_coverage.iter().copied().collect();
            for subjob in pending {
                self.flag(
                    at,
                    AuditInvariant::StandbyCoverage,
                    subjob,
                    u32::MAX,
                    0,
                    0,
                    out,
                );
            }
        }
    }

    fn report(&self) -> String {
        let meta = self.meta.unwrap_or_default();
        let total = self.total();
        let mut s = String::with_capacity(512);
        let _ = writeln!(s, "== sps-audit report ==");
        let _ = writeln!(s, "events audited: {}", self.events_audited);
        let _ = writeln!(s, "violations: {total}");
        let _ = writeln!(s, "verdict: {}", if total == 0 { "PASS" } else { "FAIL" });
        let _ = writeln!(
            s,
            "expectations: lossless={} quiescent={} flat={} subjobs={}",
            meta.lossless, meta.quiescent, meta.flat, meta.subjobs
        );
        let _ = writeln!(s, "invariants:");
        for (i, inv) in AuditInvariant::ALL.iter().enumerate() {
            let _ = writeln!(s, "  {}: {}", inv.as_str(), self.counts[i]);
        }
        if total > 0 {
            let _ = writeln!(s, "first violations (up to {DETAIL_CAP}):");
            for v in &self.detail {
                let _ = writeln!(s, "  {}", v.render());
            }
            if total > self.detail.len() as u64 {
                let _ = writeln!(s, "  ... and {} more", total - self.detail.len() as u64);
            }
        }
        s
    }

    fn violation_total(&self) -> u64 {
        self.total()
    }

    fn invariant_totals(&self, out: &mut Vec<(&'static str, u64)>) {
        for (i, inv) in AuditInvariant::ALL.iter().enumerate() {
            out.push((inv.as_str(), self.counts[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn rec(ms: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { at: t(ms), event }
    }

    fn run(records: &[TraceRecord]) -> (Auditor, Vec<TraceRecord>) {
        let mut a = Auditor::new();
        let mut out = Vec::new();
        for r in records {
            a.observe(r, &mut out);
        }
        a.finish(&mut out);
        (a, out)
    }

    fn meta(flat: bool, lossless: bool, quiescent: bool) -> TraceRecord {
        rec(
            0,
            TraceEvent::AuditMeta {
                subjobs: 2,
                flat,
                lossless,
                quiescent,
            },
        )
    }

    fn count_of(a: &Auditor, inv: AuditInvariant) -> u64 {
        let mut totals = Vec::new();
        a.invariant_totals(&mut totals);
        totals
            .iter()
            .find(|(n, _)| *n == inv.as_str())
            .map(|&(_, c)| c)
            .unwrap()
    }

    fn deliver(ms: u64, seq: u64, newly: u32, through: u64) -> TraceRecord {
        rec(
            ms,
            TraceEvent::SinkDeliver {
                sink: 0,
                stream: 7,
                seq_start: seq,
                seq_end: seq,
                newly_accepted: newly,
                duplicates: 0,
                processed_through: through,
            },
        )
    }

    #[test]
    fn clean_stream_passes() {
        let (a, out) = run(&[
            meta(true, true, true),
            rec(
                0,
                TraceEvent::SubjobMeta {
                    subjob: 1,
                    mode: HaModeTag::Hybrid,
                },
            ),
            deliver(1, 1, 1, 1),
            deliver(2, 2, 1, 2),
            deliver(3, 2, 0, 2), // duplicate correctly rejected
        ]);
        assert_eq!(a.total(), 0);
        assert!(out.is_empty());
        assert!(a.report().contains("verdict: PASS"));
        assert_eq!(a.events_audited, 5);
    }

    #[test]
    fn double_accept_and_regression_flag_exactly_once() {
        let (a, out) = run(&[
            meta(true, true, true),
            deliver(1, 1, 1, 1),
            deliver(2, 1, 1, 1), // accepted again without advancing
            deliver(3, 0, 1, 0), // position regressed
        ]);
        assert_eq!(count_of(&a, AuditInvariant::SinkExactlyOnce), 2);
        assert_eq!(out.len(), 2);
        assert!(a.report().contains("verdict: FAIL"));
    }

    #[test]
    fn seq_gap_only_flagged_for_lossless_quiescent_runs() {
        let gappy = [meta(true, true, true), deliver(1, 5, 1, 1)];
        let (a, _) = run(&gappy);
        assert_eq!(count_of(&a, AuditInvariant::SinkSeqGap), 1);

        let lossy = [meta(true, false, true), deliver(1, 5, 1, 1)];
        let (a, _) = run(&lossy);
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn a_stream_short_of_its_producers_is_flagged_on_lossless_quiescent_runs() {
        let last = |processed| {
            rec(
                9,
                TraceEvent::StreamFinal {
                    stream: 2,
                    last_seq: 4_999,
                    processed,
                },
            )
        };
        let (a, out) = run(&[meta(true, true, true), last(178)]);
        assert_eq!(count_of(&a, AuditInvariant::StreamComplete), 1);
        assert_eq!(a.violations()[0].entity, 2);
        assert_eq!(out.len(), 1);
        // Caught up (or ahead, where a restored producer restarted lower).
        let (a, _) = run(&[meta(true, true, true), last(4_999)]);
        assert_eq!(a.total(), 0);
        // A lossy or still-running run promises nothing.
        for (lossless, quiescent) in [(false, true), (true, false)] {
            let (a, _) = run(&[meta(true, lossless, quiescent), last(178)]);
            assert_eq!(a.total(), 0);
        }
    }

    #[test]
    fn ack_must_follow_checkpoint_coverage() {
        let cover = |ms, seq| {
            rec(
                ms,
                TraceEvent::CheckpointCovered {
                    pe: 3,
                    replica: 0,
                    stream: 9,
                    seq,
                },
            )
        };
        let ack = |ms, seq| {
            rec(
                ms,
                TraceEvent::AckSent {
                    pe: 3,
                    replica: 0,
                    stream: 9,
                    seq,
                },
            )
        };
        let (a, _) = run(&[cover(1, 10), ack(2, 10), ack(3, 8)]);
        assert_eq!(a.total(), 0);
        let (a, _) = run(&[cover(1, 10), ack(2, 11)]);
        assert_eq!(count_of(&a, AuditInvariant::CkptAckOrder), 1);
        let (a, _) = run(&[ack(1, 1)]);
        assert_eq!(
            count_of(&a, AuditInvariant::CkptAckOrder),
            1,
            "no coverage at all"
        );
    }

    fn epoch(ms: u64, subjob: u32, epoch: u64, cause: EpochCause, machine: u32) -> TraceRecord {
        rec(
            ms,
            TraceEvent::EpochChange {
                subjob,
                epoch,
                cause,
                primary_machine: machine,
                primary_replica: 0,
            },
        )
    }

    #[test]
    fn epoch_monotonicity_and_split_brain() {
        let (a, _) = run(&[
            meta(true, true, true),
            epoch(0, 1, 0, EpochCause::Init, 1),
            epoch(1, 1, 1, EpochCause::Switchover, 1),
            epoch(2, 1, 2, EpochCause::Promote, 6),
        ]);
        assert_eq!(
            count_of(&a, AuditInvariant::StandbyCoverage),
            1,
            "promote armed coverage"
        );
        assert_eq!(a.total(), 1);

        let (a, _) = run(&[
            epoch(0, 1, 1, EpochCause::Switchover, 1),
            epoch(1, 1, 1, EpochCause::Switchover, 6), // same epoch, new primary
        ]);
        assert_eq!(count_of(&a, AuditInvariant::SplitBrain), 1);

        let (a, _) = run(&[
            epoch(0, 1, 5, EpochCause::Switchover, 1),
            epoch(1, 1, 4, EpochCause::PsDetect, 1),
        ]);
        assert_eq!(count_of(&a, AuditInvariant::EpochRegression), 1);
    }

    #[test]
    fn standby_coverage_discharged_by_provision_or_abort() {
        let provision = rec(
            3,
            TraceEvent::StandbyProvision {
                subjob: 1,
                machine: 9,
                fresh: true,
                primary_domain: 0,
                standby_domain: 1,
            },
        );
        let (a, _) = run(&[
            meta(true, true, true),
            epoch(1, 1, 1, EpochCause::Promote, 6),
            provision,
        ]);
        assert_eq!(a.total(), 0);

        let abort = rec(
            3,
            TraceEvent::FailoverAborted {
                subjob: 1,
                machine: u32::MAX,
                reason: sps_trace::AbortReason::NoStandby,
            },
        );
        let (a, _) = run(&[
            meta(true, true, true),
            epoch(1, 1, 1, EpochCause::Promote, 6),
            abort,
        ]);
        assert_eq!(a.total(), 0);

        // Neither: liveness violation at finish, stamped with the last
        // audited record's time.
        let (a, out) = run(&[
            meta(true, true, true),
            epoch(1, 1, 1, EpochCause::Promote, 6),
        ]);
        assert_eq!(count_of(&a, AuditInvariant::StandbyCoverage), 1);
        assert_eq!(out.last().unwrap().at, t(1));
    }

    #[test]
    fn domain_disjoint_checked_only_for_fresh_on_nonflat() {
        let prov = |fresh, pd, sd| {
            rec(
                1,
                TraceEvent::StandbyProvision {
                    subjob: 0,
                    machine: 4,
                    fresh,
                    primary_domain: pd,
                    standby_domain: sd,
                },
            )
        };
        let (a, _) = run(&[meta(false, false, false), prov(true, 2, 2)]);
        assert_eq!(count_of(&a, AuditInvariant::DomainDisjoint), 1);
        // Initial placement colocation (fresh=false) is by design.
        let (a, _) = run(&[meta(false, false, false), prov(false, 2, 2)]);
        assert_eq!(a.total(), 0);
        // Flat topologies have no shared domains to police.
        let (a, _) = run(&[meta(true, false, false), prov(true, 2, 2)]);
        assert_eq!(a.total(), 0);
        // Unpaired provisions (whole-subjob redeploys) carry MAX.
        let (a, _) = run(&[meta(false, false, false), prov(true, u32::MAX, 3)]);
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn phase_dfa_per_mode() {
        use RecoveryPhase as P;
        let sj = |ms, phase| rec(ms, TraceEvent::Recovery { subjob: 0, phase });
        let mode = |m| rec(0, TraceEvent::SubjobMeta { subjob: 0, mode: m });

        let (a, _) = run(&[
            mode(HaModeTag::Hybrid),
            sj(1, P::Detected),
            sj(2, P::SwitchoverComplete),
            sj(3, P::RollbackStarted),
            sj(4, P::RollbackComplete),
            sj(5, P::Detected),
            sj(6, P::SwitchoverComplete),
            sj(7, P::Promoted),
            sj(8, P::SecondaryReady),
        ]);
        assert_eq!(a.total(), 0, "canonical hybrid cycle is legal");

        let (a, _) = run(&[mode(HaModeTag::Hybrid), sj(1, P::SwitchoverComplete)]);
        assert_eq!(
            count_of(&a, AuditInvariant::IllegalPhase),
            1,
            "switch-over without detection"
        );

        let (a, _) = run(&[
            mode(HaModeTag::Passive),
            sj(1, P::Detected),
            sj(2, P::PsDeployed),
            sj(3, P::PsConnected),
            sj(4, P::Detected),
        ]);
        assert_eq!(a.total(), 0, "ps migration cycle is legal");

        let (a, _) = run(&[mode(HaModeTag::Passive), sj(1, P::Promoted)]);
        assert_eq!(
            count_of(&a, AuditInvariant::IllegalPhase),
            1,
            "ps never promotes"
        );

        let (a, _) = run(&[mode(HaModeTag::None), sj(1, P::Detected)]);
        assert_eq!(
            count_of(&a, AuditInvariant::IllegalPhase),
            1,
            "unprotected subjobs have no phases"
        );

        let (a, _) = run(&[mode(HaModeTag::Active), sj(1, P::SecondaryReady)]);
        assert_eq!(a.total(), 0, "as standby repair is legal");
    }

    #[test]
    fn retransmit_attempts_must_increase() {
        let rt = |ms, tx, attempt| {
            rec(
                ms,
                TraceEvent::Retransmit {
                    src: 0,
                    dst: 1,
                    tx,
                    attempt,
                },
            )
        };
        let (a, _) = run(&[rt(1, 40, 1), rt(2, 40, 2), rt(3, 41, 1)]);
        assert_eq!(a.total(), 0);
        let (a, _) = run(&[rt(1, 40, 1), rt(2, 40, 1)]);
        assert_eq!(count_of(&a, AuditInvariant::RetransmitReflag), 1);
    }

    #[test]
    fn report_is_deterministic_and_counts_cap_free() {
        let mut records = vec![meta(true, true, true)];
        for i in 0..(DETAIL_CAP as u64 + 5) {
            records.push(deliver(i + 1, 1, 1, 1));
        }
        records.insert(1, deliver(0, 1, 1, 1)); // first real accept
        let (a, _) = run(&records);
        assert_eq!(a.total(), DETAIL_CAP as u64 + 5);
        assert_eq!(a.violations().len(), DETAIL_CAP);
        let r = a.report();
        assert!(r.contains(&format!("... and {} more", 5)));
        let (b, _) = run(&records);
        assert_eq!(r, b.report(), "identical input, identical report");
    }
}
