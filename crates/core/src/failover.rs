//! Failure handling: heartbeat monitoring, the hybrid switch-over /
//! rollback cycle, passive-standby migration, and fail-stop promotion.
//!
//! Every role-changing transition is built from the same five steps, in
//! this order, each with exactly one function: retire the departing copy
//! (`retire_copy`), bring the serving copy up (`bring_up`), swap the roles
//! (`swap_roles`), advance the epoch (`advance_epoch`, the only place a
//! subjob's epoch is bumped), and re-provision the standby
//! (`provision_standby`).

use std::ops::Range;
use std::sync::Arc;

use sps_cluster::MachineId;
use sps_engine::{ConnectionId, Dest, InstanceId, PeCheckpoint, PeId, Replica, SubjobId};
use sps_metrics::MsgClass;
use sps_sim::{Ctx, SimTime};

use sps_trace::{AbortReason, EpochCause, TraceEvent};

use crate::config::{
    HaMode, CONNECT_DELAY, DEPLOY_DELAY, HYBRID_MISS_THRESHOLD, PS_MISS_THRESHOLD, RESUME_DELAY,
};
use crate::data_plane::Hop;
use crate::detect::{BenchAction, HbVerdict, HeartbeatMonitor, BENCH_SAMPLE_INTERVAL};
use crate::message::{Msg, ProducerAddr};
use crate::wiring::find_conn;
use crate::world::{
    replica_code, slot_of, CkptProgress, Event, HaEventKind, HaWorld, SjState, SubjobPending,
};

impl HaWorld {
    fn log_event(&mut self, at: SimTime, subjob: SubjobId, kind: HaEventKind) {
        self.observers
            .metric_inc(sps_metrics::Scope::global("recovery"), kind.as_str(), 1);
        self.tracer.emit_phase(at, subjob.0, kind);
    }

    // ---- the transition steps ----

    /// Moves `sj_id` to `state` under a new recovery epoch and returns it.
    /// The only place a subjob's epoch is bumped: events scheduled under
    /// the old epoch go stale, and the audit record carrying the new
    /// epoch, its cause and the (possibly reassigned) primary lets the
    /// protocol auditor check epoch monotonicity and
    /// at-most-one-active-primary per epoch.
    fn advance_epoch(
        &mut self,
        at: SimTime,
        sj_id: SubjobId,
        state: SjState,
        cause: EpochCause,
    ) -> u64 {
        let sj = &mut self.subjobs[sj_id.0 as usize];
        sj.epoch += 1;
        let epoch = sj.epoch;
        let record = TraceEvent::EpochChange {
            subjob: sj_id.0,
            epoch,
            cause,
            primary_machine: sj.primary_machine.0,
            primary_replica: replica_code(sj.primary_replica),
        };
        self.set_sj_state(sj_id, state);
        self.subjobs[sj_id.0 as usize].settled = state == SjState::Normal;
        self.tracer.emit(at, record);
        epoch
    }

    /// Retires `sj_id`'s `replica` copy: for every deployed PE, switches
    /// its data path off and retires the slot, which voids the copy's
    /// in-flight CPU work.
    fn retire_copy(&mut self, sj_id: SubjobId, replica: Replica) {
        let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
        for pe in pes {
            let slot = slot_of(pe, replica);
            if self.slots[slot].copy().is_some() {
                self.deactivate_instance_io(pe, replica);
                self.slots[slot].retire();
            }
        }
    }

    /// Puts `replica`'s copies of `pes` into service: unsuspends them,
    /// activates their data paths (retained elements replay both ways),
    /// then starts their processing loops.
    fn bring_up(&mut self, ctx: &mut Ctx<Event>, pes: &[PeId], replica: Replica) {
        for &pe in pes {
            if let Some(inst) = self.slots[slot_of(pe, replica)].copy_mut() {
                inst.set_suspended(false);
            }
        }
        for &pe in pes {
            self.activate_instance_io(ctx, pe, replica);
        }
        for &pe in pes {
            self.try_start(ctx, slot_of(pe, replica));
        }
    }

    /// Swaps `sj_id`'s primary and standby roles — replica and machine —
    /// and returns the `(old, new)` primary machines. The vacated machine
    /// holds the standby role until [`provision_standby`](Self::provision_standby)
    /// assigns it.
    fn swap_roles(&mut self, sj_id: SubjobId) -> (MachineId, MachineId) {
        let sj = &mut self.subjobs[sj_id.0 as usize];
        let old = sj.primary_machine;
        let new = sj
            .secondary_machine
            .expect("a role swap needs a standby machine");
        sj.primary_machine = new;
        sj.secondary_machine = Some(old);
        sj.primary_replica = sj.primary_replica.other();
        (old, new)
    }

    /// Assigns `sj_id`'s standby role to `target` (`fresh` when it was just
    /// taken from the spare pool) and restarts its heartbeat monitor, logs
    /// `phase`, then either schedules a new standby copy on `target` — when
    /// [`HaConfig::predeploys`](crate::HaConfig::predeploys) says the mode
    /// keeps one — or, with no machine to be had, records the dead end.
    fn provision_standby(
        &mut self,
        ctx: &mut Ctx<Event>,
        sj_id: SubjobId,
        target: Option<MachineId>,
        fresh: bool,
        phase: Option<HaEventKind>,
    ) {
        let now = ctx.now();
        let sj = &mut self.subjobs[sj_id.0 as usize];
        sj.secondary_machine = target;
        let primary = sj.primary_machine;
        self.emit_standby_provision(now, sj_id, target, fresh, Some(primary));
        if let Some(hb) = &mut self.subjobs[sj_id.0 as usize].hb {
            *hb = HeartbeatMonitor::new();
        }
        if let Some(phase) = phase {
            self.log_event(now, sj_id, phase);
        }
        let sj = &self.subjobs[sj_id.0 as usize];
        match target {
            Some(_) if self.cfg.predeploys(sj.mode) => ctx.schedule_in(
                DEPLOY_DELAY,
                Event::SecondaryReady {
                    subjob: sj_id.0,
                    epoch: sj.epoch,
                },
            ),
            Some(_) => {}
            // Redundancy could not be restored: make the dead end
            // observable.
            None => self.abort_failover(ctx, sj_id, None, AbortReason::NoStandby),
        }
    }

    /// Audit tap: a standby target was (re)assigned after a failover step.
    /// `fresh` marks a machine newly taken from the spare pool (initial
    /// placements and kept machines are not re-checked for disjointness);
    /// `paired_with` is the primary the standby must be domain-disjoint
    /// from, or `None` when the whole subjob is being redeployed and no
    /// pair constraint applies yet. The domain fields are equal exactly
    /// when the pair shares a fault domain (rack or switch).
    fn emit_standby_provision(
        &mut self,
        at: SimTime,
        sj_id: SubjobId,
        machine: Option<MachineId>,
        fresh: bool,
        paired_with: Option<MachineId>,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let topo = self.cluster.topology();
        let (m, pd, sd) = match (machine, paired_with) {
            (Some(s), Some(p)) if topo.domain_disjoint(p, s) => {
                (s.0, topo.rack_of(p).0, topo.rack_of(s).0)
            }
            (Some(s), Some(p)) => (s.0, topo.rack_of(p).0, topo.rack_of(p).0),
            (Some(s), None) => (s.0, u32::MAX, topo.rack_of(s).0),
            (None, _) => (u32::MAX, u32::MAX, u32::MAX),
        };
        self.tracer.emit(
            at,
            TraceEvent::StandbyProvision {
                subjob: sj_id.0,
                machine: m,
                fresh,
                primary_domain: pd,
                standby_domain: sd,
            },
        );
    }

    // ---- heartbeat ----

    /// One heartbeat round (DESIGN §14): every monitored subjob, in index
    /// order, ticks its own monitor and acts on its misses, and each
    /// (monitor, primary) machine pair gets one ping, sent for the first
    /// subjob of the pair the round meets.
    pub(crate) fn on_heartbeat_round(&mut self, ctx: &mut Ctx<Event>) {
        // Periodic forever: reschedule first.
        ctx.schedule_in(self.cfg.heartbeat_interval, Event::HeartbeatTick);
        let round = self.hb_pairs.begin_round();
        for sj_idx in 0..self.subjobs.len() {
            if self.subjobs[sj_idx].hb.is_some() {
                self.heartbeat_subjob(ctx, SubjobId(sj_idx as u32), round);
            }
        }
    }

    fn heartbeat_subjob(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId, round: u64) {
        let sj_idx = sj_id.0 as usize;
        let (mon_machine, target_machine) = {
            let sj = &self.subjobs[sj_idx];
            let Some(sec) = sj.secondary_machine else {
                return;
            };
            (sec, sj.primary_machine)
        };
        if !self.cluster.machine(mon_machine).is_up() {
            return;
        }
        let (seq, verdict) = self.subjobs[sj_idx]
            .hb
            .as_mut()
            .expect("heartbeat rounds tick only monitored subjobs")
            .tick(round);
        if let HbVerdict::Missed { streak } = verdict {
            self.on_misses(ctx, sj_id, streak);
        }
        // Keep pinging even while suspected: the reply is the hybrid's
        // rollback trigger.
        let (mon_machine, target_machine) = {
            // Re-read: on_misses may have swapped roles.
            let sj = &self.subjobs[sj_idx];
            match sj.secondary_machine {
                Some(sec) => (sec, sj.primary_machine),
                None => (mon_machine, target_machine),
            }
        };
        if !self
            .hb_pairs
            .join(sj_id.0, mon_machine.0, target_machine.0, seq)
        {
            return; // the pair's ping is already out; its pong fans out here
        }
        self.tracer
            .emit_data(ctx.now(), || TraceEvent::HeartbeatPing {
                machine: target_machine.0,
                seq,
            });
        self.send_msg(
            ctx,
            mon_machine,
            target_machine,
            Msg::Ping {
                subjob: sj_id,
                seq,
                round,
            },
            MsgClass::Heartbeat,
            0,
        );
    }

    fn on_misses(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId, streak: u32) {
        let sj_idx = sj_id.0 as usize;
        let mode = self.subjobs[sj_idx].mode;
        let state = self.subjobs[sj_idx].state;
        let suspect = self.subjobs[sj_idx].primary_machine;
        self.tracer.emit(
            ctx.now(),
            TraceEvent::HeartbeatMiss {
                machine: suspect.0,
                streak,
            },
        );
        self.observers.metric_inc(
            sps_metrics::Scope::machine("heartbeat", suspect.0),
            "misses",
            1,
        );

        if streak >= self.cfg.failstop_miss_threshold && mode == HaMode::Hybrid {
            // `>=`, not `==`: if a promotion attempt could not act (e.g. a
            // rollback was in flight when the machine died), the next miss
            // retries it.
            if streak == self.cfg.failstop_miss_threshold {
                self.declare_failure(ctx.now(), sj_id, suspect, streak);
            }
            self.promote(ctx, sj_id);
            return;
        }
        let declares = state == SjState::Normal
            && match mode {
                HaMode::Hybrid => streak == HYBRID_MISS_THRESHOLD,
                HaMode::Passive => streak == PS_MISS_THRESHOLD,
                HaMode::None | HaMode::Active => false,
            };
        if declares {
            self.declare_failure(ctx.now(), sj_id, suspect, streak);
            if let Some(hb) = &mut self.subjobs[sj_idx].hb {
                hb.mark_suspected();
            }
            if mode == HaMode::Hybrid {
                self.hybrid_switchover(ctx, sj_id);
            } else {
                self.ps_recover(ctx, sj_id);
            }
        }
    }

    /// `sj_id`'s monitor declares its primary `machine` failed after
    /// `streak` consecutive misses.
    fn declare_failure(&mut self, at: SimTime, sj_id: SubjobId, machine: MachineId, streak: u32) {
        self.subjobs[sj_id.0 as usize].declarations.push(at);
        self.tracer.emit(
            at,
            TraceEvent::FailureDetect {
                machine: machine.0,
                subjob: sj_id.0,
                miss_streak: streak,
            },
        );
    }

    /// The pong for the ping `leader` sent as `seq` in `round`: credited to
    /// the leader, then, in subjob order, to every other member of the pair
    /// that ping stood for, each under its own sequence number.
    pub(crate) fn on_pong(&mut self, ctx: &mut Ctx<Event>, leader: SubjobId, seq: u64, round: u64) {
        self.member_pong(ctx, leader, round, seq);
        let mut member = leader.0;
        while let Some((next, seq)) = self.hb_pairs.next_member(member, round) {
            self.member_pong(ctx, SubjobId(next), round, seq);
            member = next;
        }
    }

    fn member_pong(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId, round: u64, seq: u64) {
        let sj = &mut self.subjobs[sj_id.0 as usize];
        let fresh_recovery = sj
            .hb
            .as_mut()
            .expect("only a monitored subjob's pings are answered")
            .pong(round, seq);
        let ponger = sj.primary_machine;
        self.tracer
            .emit_data(ctx.now(), || TraceEvent::HeartbeatPong {
                machine: ponger.0,
                seq,
                cleared_suspicion: fresh_recovery,
            });
        if !fresh_recovery {
            return;
        }
        self.observers.metric_inc(
            sps_metrics::Scope::machine("heartbeat", ponger.0),
            "suspicion_cleared",
            1,
        );
        let sj = &self.subjobs[sj_id.0 as usize];
        if sj.mode != HaMode::Hybrid {
            return; // PS commits to its migration; no rollback.
        }
        match sj.state {
            // Resume still in flight: a false alarm caught early. Abort the
            // switch-over outright — "our hybrid method can afford false
            // alarms to certain extent".
            SjState::SwitchingOver => {
                self.advance_epoch(
                    ctx.now(),
                    sj_id,
                    SjState::Normal,
                    EpochCause::SwitchoverAbort,
                );
            }
            SjState::SwitchedOver => {
                if self.cfg.read_state_on_rollback {
                    self.hybrid_rollback_start(ctx, sj_id);
                } else {
                    self.hybrid_rollback_without_read(ctx, sj_id);
                }
            }
            _ => {}
        }
    }

    /// Rollback with the read-state optimization disabled: just suspend the
    /// secondary and let the primary resume from its own (stale) state. It
    /// must then process everything that arrived during the failure — the
    /// catch-up cost §IV-B's "Read State on Rollback" eliminates.
    fn hybrid_rollback_without_read(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        let standby = self.subjobs[sj_id.0 as usize].primary_replica.other();
        self.log_event(ctx.now(), sj_id, HaEventKind::RollbackStarted);
        let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
        for &pe in &pes {
            let record = &mut self.slots[slot_of(pe, standby)];
            if let Some(inst) = record.copy_mut() {
                inst.abort_inflight();
                inst.resume();
                inst.set_suspended(true);
                record.restart();
            }
        }
        for &pe in &pes {
            self.deactivate_instance_io(pe, standby);
        }
        self.subjobs[sj_id.0 as usize].pending = None;
        self.set_sj_state(sj_id, SjState::Normal);
        self.log_event(ctx.now(), sj_id, HaEventKind::RollbackComplete);
    }

    // ---- the promotion-safety ladder ----

    /// Checks every rung of the promotion-safety ladder for `sj_id`'s
    /// standby. Returns `None` when the standby is safe to fail over to,
    /// or the rejecting `(machine, reason)` pair:
    ///
    /// 1. a standby must exist at all ([`AbortReason::NoStandby`]);
    /// 2. its machine must be up ([`AbortReason::StandbyUnhealthy`]);
    /// 3. its fault domain must have no active correlated fault
    ///    ([`AbortReason::DomainFault`]) — never promote into a rack that
    ///    is losing machines or behind a partitioned switch.
    ///
    /// Under the flat topology this reduces to the pre-ladder
    /// `secondary_machine.is_none()` check, because the heartbeat monitor
    /// is hosted on the standby machine and never fires while that machine
    /// is down.
    fn ladder_reject(&self, sj_id: SubjobId) -> Option<(Option<MachineId>, AbortReason)> {
        let Some(sec) = self.subjobs[sj_id.0 as usize].secondary_machine else {
            return Some((None, AbortReason::NoStandby));
        };
        if !self.cluster.machine(sec).is_up() {
            return Some((Some(sec), AbortReason::StandbyUnhealthy));
        }
        if self.cluster.domain_has_active_fault(sec) {
            return Some((Some(sec), AbortReason::DomainFault));
        }
        None
    }

    /// Logs a failover the ladder refused: a `failover_aborted` trace
    /// event plus the `failover/aborted` counter, so the dead-end is
    /// visible in health reports and `sps-inspect summary` instead of
    /// silently dropping the failure declaration.
    fn abort_failover(
        &mut self,
        ctx: &mut Ctx<Event>,
        sj_id: SubjobId,
        machine: Option<MachineId>,
        reason: AbortReason,
    ) {
        self.observers
            .metric_inc(sps_metrics::Scope::global("failover"), "aborted", 1);
        self.tracer.emit(
            ctx.now(),
            TraceEvent::FailoverAborted {
                subjob: sj_id.0,
                machine: machine.map_or(u32::MAX, |m| m.0),
                reason,
            },
        );
    }

    // ---- hybrid switch-over ----

    fn hybrid_switchover(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        if let Some((machine, reason)) = self.ladder_reject(sj_id) {
            // Standby lost/unsafe: cannot switch. The fail-stop path will
            // redeploy onto a spare if the primary is really dead.
            self.abort_failover(ctx, sj_id, machine, reason);
            return;
        }
        let epoch = self.advance_epoch(
            ctx.now(),
            sj_id,
            SjState::SwitchingOver,
            EpochCause::Switchover,
        );
        self.log_event(ctx.now(), sj_id, HaEventKind::Detected);
        // With pre-deployment, "we only need to reset the flag to resume
        // the processing loop" — a fraction of an on-demand deployment.
        // Without the optimizations the respective costs come back.
        let mut delay = if self.cfg.hybrid_predeploy {
            RESUME_DELAY
        } else {
            DEPLOY_DELAY
        };
        if !self.cfg.hybrid_early_connections {
            delay += CONNECT_DELAY;
        }
        ctx.schedule_in(
            delay,
            Event::SwitchoverComplete {
                subjob: sj_id.0,
                epoch,
            },
        );
    }

    pub(crate) fn on_switchover_complete(&mut self, ctx: &mut Ctx<Event>, subjob: u32, epoch: u64) {
        if !self.subjobs[subjob as usize].is_at(epoch, SjState::SwitchingOver) {
            return;
        }
        let sj_id = SubjobId(subjob);
        let standby = self.subjobs[subjob as usize].primary_replica.other();
        self.set_sj_state(sj_id, SjState::SwitchedOver);
        let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
        // Without pre-deployment the copy is created right now, from the
        // stored checkpoints (the deploy delay was already paid). With it,
        // the slots can still be empty if a standby re-provisioning was in
        // flight when the switch-over fired — deploy here too rather than
        // switching over to nothing.
        if pes
            .iter()
            .any(|&pe| self.slots[slot_of(pe, standby)].copy().is_none())
        {
            let machine = self.subjobs[subjob as usize]
                .secondary_machine
                .expect("guarded at switch-over");
            self.deploy_standby_instances(sj_id, standby, machine, true);
        }
        // Without early connections they were just established on demand
        // (the connect delay was already paid); make sure they exist.
        self.ensure_standby_connections(sj_id, standby);
        // Early connections: "we just need to set that field to true".
        self.bring_up(ctx, &pes, standby);
        self.log_event(ctx.now(), sj_id, HaEventKind::SwitchoverComplete);
    }

    // ---- hybrid rollback ----

    fn hybrid_rollback_start(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        let standby = self.subjobs[sj_id.0 as usize].primary_replica.other();
        self.set_sj_state(sj_id, SjState::RollingBack);
        self.log_event(ctx.now(), sj_id, HaEventKind::RollbackStarted);
        // Pause the live secondary's PEs so their state can be read
        // consistently.
        let mut waiting = Vec::new();
        for &pe in self.job.subjob_pes(sj_id) {
            if let Some(inst) = self.slots[slot_of(pe, standby)].copy_mut() {
                if !inst.request_pause() {
                    waiting.push(pe);
                }
            }
        }
        if waiting.is_empty() {
            self.do_rollback_read(ctx, sj_id);
        } else {
            self.subjobs[sj_id.0 as usize].pending = Some(SubjobPending::RollbackRead { waiting });
        }
    }

    /// The live secondary is quiescent: snapshot it, suspend it, and ship
    /// the state back to the primary ("Read State on Rollback").
    pub(crate) fn do_rollback_read(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        let (standby, primary_machine, secondary_machine, epoch) = {
            let sj = &self.subjobs[sj_id.0 as usize];
            if sj.state != SjState::RollingBack {
                return;
            }
            let Some(sec) = sj.secondary_machine else {
                return;
            };
            (
                sj.primary_replica.other(),
                sj.primary_machine,
                sec,
                sj.epoch,
            )
        };
        let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
        let mut ckpts = Vec::with_capacity(pes.len());
        let mut elements = 0u64;
        for &pe in &pes {
            let Some(inst) = self.slots[slot_of(pe, standby)].copy_mut() else {
                continue;
            };
            let stamp = self.subjobs[sj_id.0 as usize].ckpt_mut(pe).next_stamp();
            let snap = inst.snapshot_with_backlog(stamp);
            inst.resume();
            inst.set_suspended(true);
            elements += snap.element_count();
            ckpts.push(Arc::new(snap));
        }
        // The suspended copy no longer participates in the data plane.
        for &pe in &pes {
            self.deactivate_instance_io(pe, standby);
        }
        let sj = &mut self.subjobs[sj_id.0 as usize];
        sj.switch_overhead_elements += elements;
        // The read-back state is also the freshest stored state (a shared
        // pointer — the message and the store reference one snapshot).
        for ckpt in &ckpts {
            sj.ckpt_mut(ckpt.pe).stored = Some(Arc::clone(ckpt));
        }
        self.send_reliable(
            ctx,
            secondary_machine,
            primary_machine,
            Msg::StateRead {
                subjob: sj_id,
                epoch,
                ckpts,
            },
            MsgClass::StateTransfer,
            elements,
        );
    }

    /// The primary received the secondary's state: jump to it and resume
    /// normal (passive-standby) operation.
    pub(crate) fn on_state_read(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        sj_id: SubjobId,
        epoch: u64,
        ckpts: Vec<Arc<PeCheckpoint>>,
    ) {
        let sj = &self.subjobs[sj_id.0 as usize];
        if !sj.is_at(epoch, SjState::RollingBack) || sj.primary_machine != at {
            return;
        }
        let primary = sj.primary_replica;
        // "Read State on Rollback" is a fast-forward: adopt the secondary's
        // state only where it is ahead of the primary's own progress. A
        // marginally-degraded primary may have processed further than a
        // secondary still catching up from its checkpoint — rolling such a
        // PE backward would redo work on a busy machine for nothing.
        let mut adopted = Vec::new();
        for ckpt in &ckpts {
            let record = &mut self.slots[slot_of(ckpt.pe, primary)];
            let Some(inst) = record.copy_mut() else {
                continue;
            };
            let current: u64 = (0..inst.input_ports())
                .flat_map(|p| inst.input_positions(p))
                .map(|(_, seq)| seq)
                .sum();
            let snapshot: u64 = ckpt
                .input_positions
                .iter()
                .flatten()
                .map(|&(_, seq)| seq)
                .sum();
            if snapshot > current {
                inst.restore(ckpt);
                inst.resume(); // clear any stale checkpoint pause
                record.restart();
                adopted.push(ckpt.pe);
            }
        }
        let sj = &mut self.subjobs[sj_id.0 as usize];
        for (_, rec) in &mut sj.ckpts {
            rec.progress = CkptProgress::Idle;
        }
        sj.pending = None;
        self.set_sj_state(sj_id, SjState::Normal);
        self.bring_up(ctx, &adopted, primary);
        self.log_event(ctx.now(), sj_id, HaEventKind::RollbackComplete);
    }

    // ---- passive-standby migration ----

    fn ps_recover(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        if let Some((machine, reason)) = self.ladder_reject(sj_id) {
            self.abort_failover(ctx, sj_id, machine, reason);
            return;
        }
        let epoch = self.advance_epoch(ctx.now(), sj_id, SjState::Deploying, EpochCause::PsDetect);
        self.log_event(ctx.now(), sj_id, HaEventKind::Detected);
        ctx.schedule_in(
            DEPLOY_DELAY,
            Event::DeployComplete {
                subjob: sj_id.0,
                epoch,
            },
        );
    }

    pub(crate) fn on_deploy_complete(&mut self, ctx: &mut Ctx<Event>, subjob: u32, epoch: u64) {
        if !self.subjobs[subjob as usize].is_at(epoch, SjState::Deploying) {
            return;
        }
        let sj_id = SubjobId(subjob);
        let standby = self.subjobs[subjob as usize].primary_replica.other();
        let sec_machine = self.subjobs[subjob as usize]
            .secondary_machine
            .expect("guarded at ps_recover");
        self.deploy_standby_instances(sj_id, standby, sec_machine, /*suspended:*/ true);
        self.set_sj_state(sj_id, SjState::Connecting);
        self.log_event(ctx.now(), sj_id, HaEventKind::PsDeployed);
        ctx.schedule_in(CONNECT_DELAY, Event::ConnectComplete { subjob, epoch });
    }

    pub(crate) fn on_connect_complete(&mut self, ctx: &mut Ctx<Event>, subjob: u32, epoch: u64) {
        if !self.subjobs[subjob as usize].is_at(epoch, SjState::Connecting) {
            return;
        }
        let sj_id = SubjobId(subjob);
        let old_primary = self.subjobs[subjob as usize].primary_replica;
        let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
        // PS migrates, it does not roll back.
        self.retire_copy(sj_id, old_primary);
        self.bring_up(ctx, &pes, old_primary.other());
        let (old_machine, new_machine) = self.swap_roles(sj_id);
        self.subjobs[subjob as usize].drop_checkpoint_progress(true);
        self.advance_epoch(ctx.now(), sj_id, SjState::Normal, EpochCause::PsConnect);
        // The vacated machine becomes the checkpoint target for the next
        // failure — but only when it is actually healthy. A migration away
        // from a *dead* primary (fail-stop, or the promotion ladder's
        // spare-redeploy fallback) must not point its checkpoints into a
        // corpse or a faulted domain; take a safe spare instead.
        let (target, fresh) = if self.cluster.machine(old_machine).is_up()
            && !self.cluster.domain_has_active_fault(old_machine)
        {
            (Some(old_machine), false)
        } else {
            (self.cluster.take_safe_spare(Some(new_machine)), true)
        };
        self.provision_standby(ctx, sj_id, target, fresh, Some(HaEventKind::PsConnected));
    }

    // ---- fail-stop promotion (hybrid) ----

    fn promote(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        // If the resume was still in flight, complete it logically first so
        // the secondary is live before promotion.
        if self.subjobs[sj_id.0 as usize].state == SjState::SwitchingOver {
            let epoch = self.subjobs[sj_id.0 as usize].epoch;
            self.on_switchover_complete(ctx, sj_id.0, epoch);
        }
        // A rollback that was in flight when the primary died left the
        // secondary suspended and its state-read message undeliverable:
        // resurrect the secondary before promoting it.
        if self.subjobs[sj_id.0 as usize].state == SjState::RollingBack {
            let standby = self.subjobs[sj_id.0 as usize].primary_replica.other();
            let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
            for &pe in &pes {
                if let Some(inst) = self.slots[slot_of(pe, standby)].copy_mut() {
                    inst.resume();
                }
            }
            self.bring_up(ctx, &pes, standby);
            self.subjobs[sj_id.0 as usize].pending = None;
            self.set_sj_state(sj_id, SjState::SwitchedOver);
        }
        if self.subjobs[sj_id.0 as usize].state != SjState::SwitchedOver {
            // A mid-incident standby loss can have returned the subjob to
            // Normal with its primary still dead and no live copy serving;
            // fall back to a spare redeploy instead of dropping the
            // declaration.
            if self.subjobs[sj_id.0 as usize].state == SjState::Normal {
                self.promote_fallback(ctx, sj_id);
            }
            return;
        }
        // The promotion-safety ladder: verify the standby really is a safe
        // place to anchor the subjob before making it the new primary.
        if let Some((machine, reason)) = self.ladder_reject(sj_id) {
            self.abort_failover(ctx, sj_id, machine, reason);
            self.promote_fallback(ctx, sj_id);
            return;
        }
        let old_primary = self.subjobs[sj_id.0 as usize].primary_replica;
        self.retire_copy(sj_id, old_primary);
        let (_, new_primary_machine) = self.swap_roles(sj_id);
        self.subjobs[sj_id.0 as usize].drop_checkpoint_progress(true);
        self.advance_epoch(ctx.now(), sj_id, SjState::Normal, EpochCause::Promote);
        // Automatic standby re-provisioning: a fresh standby on a healthy
        // machine domain-disjoint from the new primary (with a flat
        // topology this is exactly the spare `pop()` always took).
        let target = self.cluster.take_safe_spare(Some(new_primary_machine));
        self.provision_standby(ctx, sj_id, target, true, Some(HaEventKind::Promoted));
    }

    /// The spare-machine redeploy fallback of the promotion-safety ladder:
    /// when every standby candidate was rejected (or the standby was
    /// consumed mid-incident) and the primary really is dead, redeploy the
    /// subjob from its stored checkpoints onto a safe spare, paying the
    /// full deploy + connect delays. Reuses the passive-standby
    /// `Deploying → Connecting → connect-complete` machinery, whose final
    /// swap re-provisions a fresh standby. Harmless to call on a false
    /// alarm (the primary answers heartbeats again): it only acts on a
    /// down primary, and each further heartbeat miss retries it.
    fn promote_fallback(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        {
            let sj = &self.subjobs[sj_id.0 as usize];
            if !matches!(sj.state, SjState::Normal | SjState::SwitchedOver)
                || self.cluster.machine(sj.primary_machine).is_up()
            {
                return;
            }
        }
        let Some(spare) = self.cluster.take_safe_spare(None) else {
            return; // the abort was already logged; the next miss retries
        };
        // Retire both copies: the primary is dead, and whatever standby
        // copy exists was rejected by the ladder.
        let old_primary = self.subjobs[sj_id.0 as usize].primary_replica;
        self.retire_copy(sj_id, old_primary);
        self.retire_copy(sj_id, old_primary.other());
        // Checkpoints stored in a dead standby's memory are gone; a live
        // (but domain-rejected) standby's store still seeds the redeploy.
        let store_lost = self.subjobs[sj_id.0 as usize]
            .secondary_machine
            .is_none_or(|m| !self.cluster.machine(m).is_up());
        let sj = &mut self.subjobs[sj_id.0 as usize];
        sj.secondary_machine = Some(spare);
        sj.drop_checkpoint_progress(store_lost);
        let epoch = self.advance_epoch(
            ctx.now(),
            sj_id,
            SjState::Deploying,
            EpochCause::SpareRedeploy,
        );
        // No pair constraint yet: the dead primary is about to be replaced
        // by this very machine through the migration path.
        self.emit_standby_provision(ctx.now(), sj_id, Some(spare), true, None);
        self.observers
            .metric_inc(sps_metrics::Scope::global("failover"), "spare_redeploy", 1);
        ctx.schedule_in(
            DEPLOY_DELAY,
            Event::DeployComplete {
                subjob: sj_id.0,
                epoch,
            },
        );
    }

    /// A subjob's standby machine fail-stopped while its primary is alive.
    /// The heartbeat path cannot notice this — the monitor itself was
    /// hosted on the dead machine — so repair is driven from the fail-stop
    /// directly: retire the dead copy, discard state that lived in the
    /// dead machine's memory, and re-provision a fresh standby on a
    /// healthy, domain-disjoint spare. The sweeping checkpoint protocol
    /// repopulates the new standby from the live primary.
    fn on_standby_lost(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        let idx = sj_id.0 as usize;
        let primary = self.subjobs[idx].primary_replica;
        let standby = primary.other();
        self.retire_copy(sj_id, standby);
        // Resume any primary PE paused for a checkpoint that can no
        // longer be stored — it would otherwise stall forever waiting on
        // the dead machine's acknowledgment.
        let mut resumed = Vec::new();
        for &pe in self.job.subjob_pes(sj_id) {
            let slot = slot_of(pe, primary);
            if let Some(inst) = self.slots[slot].copy_mut() {
                if inst.is_pause_requested() {
                    inst.resume();
                    resumed.push(slot);
                }
            }
        }
        for slot in resumed {
            self.try_start(ctx, slot);
        }
        // The stored checkpoints lived in the dead machine's memory.
        self.subjobs[idx].drop_checkpoint_progress(true);
        self.advance_epoch(ctx.now(), sj_id, SjState::Normal, EpochCause::StandbyLost);
        self.observers
            .metric_inc(sps_metrics::Scope::global("failover"), "standby_lost", 1);
        let primary_machine = self.subjobs[idx].primary_machine;
        let spare = self.cluster.take_safe_spare(Some(primary_machine));
        self.provision_standby(ctx, sj_id, spare, true, None);
    }

    pub(crate) fn on_secondary_ready(&mut self, ctx: &mut Ctx<Event>, subjob: u32, epoch: u64) {
        if !self.subjobs[subjob as usize].is_at(epoch, SjState::Normal) {
            return;
        }
        let sj_id = SubjobId(subjob);
        let standby = self.subjobs[subjob as usize].primary_replica.other();
        let Some(sec_machine) = self.subjobs[subjob as usize].secondary_machine else {
            return;
        };
        // A fresh copy with early (inactive) connections. Hybrid standbys
        // deploy suspended and are refreshed by new checkpoints; active
        // standbys start serving immediately.
        let suspended = self.subjobs[subjob as usize].mode != HaMode::Active;
        self.deploy_standby_instances(sj_id, standby, sec_machine, suspended);
        if !suspended {
            let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
            self.bring_up(ctx, &pes, standby);
        }
        self.log_event(ctx.now(), sj_id, HaEventKind::SecondaryReady);
    }

    // ---- machine fail-stop injection ----

    pub(crate) fn on_fail_stop(&mut self, ctx: &mut Ctx<Event>, machine: u32) {
        let m = MachineId(machine);
        self.observers.note_injection(m, ctx.now());
        self.tracer.emit(
            ctx.now(),
            TraceEvent::FailureInject {
                machine,
                fail_stop: true,
            },
        );
        self.cluster.machine_mut(m).fail(ctx.now());
        self.rearm_machine(ctx, m);
        let on_m = self.slots.iter_mut().filter(|record| record.machine() == m);
        for inst in on_m.filter_map(|record| record.copy_mut()) {
            inst.abort_inflight();
        }
        // Standby-death repair: subjobs whose standby lived on the dead
        // machine (with the primary elsewhere and alive) re-provision a
        // replacement immediately — the heartbeat path cannot drive this,
        // because the monitor itself was hosted on the dead machine.
        let affected: Vec<SubjobId> = self
            .subjobs
            .iter()
            .enumerate()
            .filter(|(_, sj)| {
                sj.mode != HaMode::None
                    && sj.secondary_machine == Some(m)
                    && sj.primary_machine != m
            })
            .map(|(i, _)| SubjobId(i as u32))
            .collect();
        for sj_id in affected {
            self.on_standby_lost(ctx, sj_id);
        }
    }

    // ---- benchmark detector ----

    pub(crate) fn on_bench_sample(&mut self, ctx: &mut Ctx<Event>, det: u32) {
        let d = det as usize;
        let machine = self.bench_detectors[d].machine;
        ctx.schedule_in(BENCH_SAMPLE_INTERVAL, Event::BenchSample { det });
        if !self.cluster.machine(machine).is_up() {
            return;
        }
        let m = self.cluster.machine_mut(machine);
        m.advance(ctx.now());
        let load = self.bench_detectors[d].monitor.sample(m, ctx.now());
        let now = ctx.now();
        if let Some(p) = self.bench_detectors[d].predictor.as_mut() {
            if p.on_sample(now, load) {
                self.bench_detectors[d].predictor_declarations.push(now);
            }
        }
        if let BenchAction::RunBenchmark { demand_secs } =
            self.bench_detectors[d].det.on_sample(ctx.now(), load)
        {
            self.bench_detectors[d].last_probe_at = Some(now);
            self.tracer
                .emit(now, TraceEvent::BenchProbe { machine: machine.0 });
            self.submit_latency_sensitive(
                ctx,
                machine,
                demand_secs,
                crate::world::TaskTag::Benchmark { det },
            );
        }
    }

    pub(crate) fn on_benchmark_done(&mut self, ctx: &mut Ctx<Event>, det: u32) {
        let d = det as usize;
        if d >= self.bench_detectors.len() {
            return;
        }
        let now = ctx.now();
        let overloaded = self.bench_detectors[d].det.on_benchmark_done(now);
        if overloaded {
            self.bench_detectors[d].declarations.push(now);
        }
        let machine = self.bench_detectors[d].machine;
        let latency_ns = self.bench_detectors[d]
            .last_probe_at
            .map(|at| now.saturating_since(at).as_nanos())
            .unwrap_or(0);
        self.tracer.emit(
            now,
            TraceEvent::BenchVerdict {
                machine: machine.0,
                latency_ns,
                overloaded,
            },
        );
    }

    // ---- connection/instances plumbing shared by the transitions ----

    /// Deploys standby instances of a subjob's PEs on `machine` (PS
    /// recovery, or a replacement secondary after promotion), restoring from
    /// stored checkpoints and creating (inactive) connections on both sides.
    fn deploy_standby_instances(
        &mut self,
        sj_id: SubjobId,
        replica: Replica,
        machine: MachineId,
        suspended: bool,
    ) {
        for pe in self.job.subjob_pes(sj_id).to_vec() {
            self.deploy_copy(pe, replica, machine, suspended);
        }
        self.ensure_standby_connections(sj_id, replica);
    }

    /// Activates the data path of one instance copy: upstream connections
    /// are pointed at its restored input positions and switched on; its
    /// output connections replay retained elements to serving consumers.
    fn activate_instance_io(&mut self, ctx: &mut Ctx<Event>, pe: PeId, replica: Replica) {
        let slot = slot_of(pe, replica);
        if self.slots[slot].copy().is_none() {
            return;
        }
        // Inputs: point each feeding connection at the instance's restored
        // position; retained elements beyond it will be retransmitted.
        // (Copied: the loop dispatches through `&mut self`.)
        for (port, stream) in self.job.input_streams(pe).to_vec() {
            let position = {
                let inst = self.slots[slot].copy().expect("checked");
                inst.input(port).processed(stream).unwrap_or(0)
            };
            let dest = Dest::Pe {
                inst: InstanceId { pe, replica },
                port,
            };
            for addr in self.producer_copies(stream, dest) {
                let resumed = self
                    .with_producer_queue(addr, |q| {
                        let conn = find_conn(q, dest)?;
                        Some((q.stream().0, q.resume(conn, position)))
                    })
                    .expect("linked");
                // A source always re-dispatches; an instance only when its
                // connection was found.
                let redispatch = resumed.is_some() || matches!(addr, ProducerAddr::Source(_));
                if let Some((stream, resent)) = resumed {
                    self.note_replay_retransmits(stream, resent);
                }
                if redispatch {
                    self.dispatch(ctx, addr.into());
                }
            }
        }
        // Outputs: replay all retained elements to serving consumers
        // (duplicates are eliminated downstream).
        for port in 0..self.job.out_ports(pe) {
            let addr = ProducerAddr::Instance(InstanceId { pe, replica }, port);
            let q = self.producer_queue(addr).expect("checked");
            let dests: Vec<Dest> = q.connections().iter().map(|c| c.dest).collect();
            for (ci, dest) in dests.into_iter().enumerate() {
                let conn = ConnectionId(ci);
                if self.dest_is_serving(dest) {
                    let (stream, resent) = self
                        .with_producer_queue(addr, |q| (q.stream().0, q.replay(conn)))
                        .expect("checked");
                    self.note_replay_retransmits(stream, resent);
                } else {
                    self.with_producer_queue(addr, |q| q.suspend(conn))
                        .expect("checked");
                }
            }
        }
        self.dispatch(ctx, Hop::Slot(slot));
    }

    /// Records replayed elements in the lineage table: every element of
    /// `stream` in `resent` is about to be transmitted a second time.
    pub(crate) fn note_replay_retransmits(&mut self, stream: u32, resent: Range<u64>) {
        if resent.is_empty() {
            return;
        }
        if let Some(lin) = self.observers.lineage_mut() {
            lin.mark_retransmit_range(stream, resent.start, resent.end - 1);
        }
    }

    /// Deactivates the data path of one instance copy (suspension,
    /// retirement, rollback).
    fn deactivate_instance_io(&mut self, pe: PeId, replica: Replica) {
        for (port, stream) in self.job.input_streams(pe).to_vec() {
            let dest = Dest::Pe {
                inst: InstanceId { pe, replica },
                port,
            };
            for addr in self.producer_copies(stream, dest) {
                self.with_producer_queue(addr, |q| {
                    if let Some(conn) = find_conn(q, dest) {
                        q.suspend(conn);
                    }
                })
                .expect("linked");
            }
        }
        let slot = slot_of(pe, replica);
        if let Some(inst) = self.slots[slot].copy_mut() {
            for port in 0..inst.output_ports() {
                for ci in 0..inst.output(port).connections().len() {
                    inst.with_output(port, |q| q.suspend(ConnectionId(ci)));
                }
            }
        }
    }
}
