//! The Checkpoint Manager: sweeping, synchronous, and individual
//! checkpointing over the pause/checkpoint/resume PE interface.
//!
//! The paper's CM (§V-A) "calls a PE's `pause(controller)` method to suspend
//! it... the controller will call the `checkpoint()` method of the PE to
//! obtain its internal state... after storing the state on the secondary
//! machine, the controller calls the `resume()` method". Here:
//!
//! * **Sweeping** (§III-B): a PE checkpoints immediately after its output
//!   queue is trimmed, at most once per interval; the sink's continuous
//!   acknowledgments seed a trim/checkpoint wave that sweeps from the most
//!   downstream PE toward the source.
//! * **Synchronous**: a per-subjob timer pauses *all* PEs, snapshots them
//!   together, and resumes them.
//! * **Individual**: each PE has its own staggered timer.
//!
//! In every protocol, the upstream acknowledgments that allow trimming are
//! sent only after the secondary machine confirms the checkpoint is stored —
//! the ordering that makes recovery sound.

use std::sync::Arc;

use sps_cluster::MachineId;
use sps_engine::{PeCheckpoint, PeId, PeInstance, Replica, SubjobId};
use sps_metrics::MsgClass;
use sps_sim::{Ctx, SimTime};

use sps_trace::TraceEvent;

use crate::config::{CheckpointProtocol, HaMode, ELEMENT_BYTES};
use crate::message::Msg;
use crate::world::{replica_code, slot_of, CkptProgress, Event, HaWorld, SjState, SubjobPending};

impl HaWorld {
    /// Sweeping trigger: called whenever an instance's output queue was
    /// trimmed by an incoming acknowledgment.
    pub(crate) fn maybe_sweep_checkpoint(
        &mut self,
        ctx: &mut Ctx<Event>,
        pe: PeId,
        replica: Replica,
    ) {
        let sj = &self.subjobs[self.job.subjob_of(pe).0 as usize];
        let due = |at: SimTime| ctx.now().saturating_since(at) >= self.cfg.checkpoint_interval;
        if self.cfg.checkpoint_protocol == CheckpointProtocol::Sweeping
            && self.checkpoint_preconditions(pe, replica)
            && sj.ckpt(pe).last_at.is_none_or(due)
        {
            self.begin_pe_checkpoint(ctx, pe);
        }
    }

    /// `true` when `replica` of `pe` acknowledges its inputs only once a
    /// stored checkpoint covers them (§III-B ordering): the primary-role
    /// copy of a checkpointing subjob. Every other copy (NONE, AS copies,
    /// the hybrid secondary while switched over) acknowledges on
    /// processing.
    pub(crate) fn acks_on_checkpoint(&self, pe: PeId, replica: Replica) -> bool {
        let sj = &self.subjobs[self.job.subjob_of(pe).0 as usize];
        sj.mode.checkpoints() && replica == sj.primary_replica
    }

    /// Common guards for starting any checkpoint of `pe`'s primary copy.
    fn checkpoint_preconditions(&self, pe: PeId, replica: Replica) -> bool {
        let sj = &self.subjobs[self.job.subjob_of(pe).0 as usize];
        self.acks_on_checkpoint(pe, replica)
            && sj.secondary_machine.is_some()
            && matches!(sj.state, SjState::Normal | SjState::SwitchedOver)
            && sj.pending.is_none()
            && sj.ckpt(pe).progress == CkptProgress::Idle
            && self.cluster.machine(sj.primary_machine).is_up()
    }

    /// Timer-driven protocols (synchronous: `pe == None`, individual:
    /// `pe == Some`).
    pub(crate) fn on_checkpoint_timer(
        &mut self,
        ctx: &mut Ctx<Event>,
        subjob: u32,
        pe: Option<PeId>,
    ) {
        // Periodic: always reschedule first.
        ctx.schedule_in(
            self.cfg.checkpoint_interval,
            Event::CheckpointTimer { subjob, pe },
        );
        match pe {
            Some(pe) => {
                let replica = self.subjobs[subjob as usize].primary_replica;
                if self.checkpoint_preconditions(pe, replica) {
                    self.begin_pe_checkpoint(ctx, pe);
                }
            }
            None => self.begin_sync_checkpoint(ctx, SubjobId(subjob)),
        }
    }

    /// Starts a single-PE checkpoint: pause, then snapshot when quiescent.
    fn begin_pe_checkpoint(&mut self, ctx: &mut Ctx<Event>, pe: PeId) {
        let sj_id = self.job.subjob_of(pe);
        let replica = self.subjobs[sj_id.0 as usize].primary_replica;
        let slot = slot_of(pe, replica);
        let quiescent = match self.slots[slot].copy_mut() {
            Some(inst) => inst.request_pause(),
            None => return,
        };
        self.tracer.emit(
            ctx.now(),
            TraceEvent::CheckpointStart {
                pe: pe.0,
                replica: replica_code(replica),
            },
        );
        if quiescent {
            self.snapshot_and_send(ctx, sj_id, &[pe]);
        } else {
            self.subjobs[sj_id.0 as usize].ckpt_mut(pe).progress = CkptProgress::Pausing;
        }
    }

    /// Starts a synchronous whole-subjob checkpoint when every PE may
    /// start one: pause everything.
    fn begin_sync_checkpoint(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        let replica = self.subjobs[sj_id.0 as usize].primary_replica;
        let pes = self.job.subjob_pes(sj_id);
        if !pes
            .iter()
            .all(|&pe| self.checkpoint_preconditions(pe, replica))
        {
            return;
        }
        let pes = pes.to_vec();
        let mut waiting = Vec::new();
        for &pe in &pes {
            let slot = slot_of(pe, replica);
            if let Some(inst) = self.slots[slot].copy_mut() {
                if !inst.request_pause() {
                    waiting.push(pe);
                }
                self.tracer.emit(
                    ctx.now(),
                    TraceEvent::CheckpointStart {
                        pe: pe.0,
                        replica: replica_code(replica),
                    },
                );
            }
        }
        if waiting.is_empty() {
            self.snapshot_and_send(ctx, sj_id, &pes);
        } else {
            self.subjobs[sj_id.0 as usize].pending =
                Some(SubjobPending::SyncCheckpoint { waiting });
        }
    }

    /// A paused PE finished its in-flight element (`ackPEPause`).
    pub(crate) fn on_pe_quiesced(&mut self, ctx: &mut Ctx<Event>, pe: PeId, replica: Replica) {
        let sj_id = self.job.subjob_of(pe);
        let sj = &mut self.subjobs[sj_id.0 as usize];
        // Per-PE checkpoint pause (sweeping/individual).
        if replica == sj.primary_replica && sj.ckpt(pe).progress == CkptProgress::Pausing {
            sj.ckpt_mut(pe).progress = CkptProgress::Idle;
            self.snapshot_and_send(ctx, sj_id, &[pe]);
            return;
        }
        // Multi-PE pauses.
        match &mut sj.pending {
            Some(SubjobPending::SyncCheckpoint { waiting }) if replica == sj.primary_replica => {
                waiting.retain(|&w| w != pe);
                if waiting.is_empty() {
                    sj.pending = None;
                    let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
                    self.snapshot_and_send(ctx, sj_id, &pes);
                }
            }
            Some(SubjobPending::RollbackRead { waiting }) if replica != sj.primary_replica => {
                waiting.retain(|&w| w != pe);
                if waiting.is_empty() {
                    sj.pending = None;
                    self.do_rollback_read(ctx, sj_id);
                }
            }
            _ => {}
        }
    }

    /// Snapshots the given (quiescent) PEs of the subjob's primary copy,
    /// resumes them, and ships the checkpoint message to the secondary.
    fn snapshot_and_send(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId, pes: &[PeId]) {
        let (replica, primary_machine, secondary_machine, epoch) = {
            let sj = &self.subjobs[sj_id.0 as usize];
            let Some(sec) = sj.secondary_machine else {
                return;
            };
            (sj.primary_replica, sj.primary_machine, sec, sj.epoch)
        };
        let mut ckpts = Vec::with_capacity(pes.len());
        let mut elements = 0u64;
        for &pe in pes {
            let slot = slot_of(pe, replica);
            let Some(inst) = self.slots[slot].copy_mut() else {
                continue;
            };
            // A delta onto the restore point when one is sure to be there
            // when the capture lands; the copy cuts it only if the point
            // is its basis.
            let sj = &mut self.subjobs[sj_id.0 as usize];
            let settled = sj.settled;
            let rec = sj.ckpt_mut(pe);
            let onto = rec.stored.as_ref().filter(|_| settled).map(|s| s.stamp);
            let ckpt = inst.snapshot(rec.next_stamp(), onto);
            inst.resume();
            elements += ckpt.element_count();
            self.tracer.emit(
                ctx.now(),
                TraceEvent::CheckpointSent {
                    pe: pe.0,
                    replica: replica_code(replica),
                    elements: ckpt.element_count() as u32,
                    bytes: ckpt.byte_size(ELEMENT_BYTES),
                },
            );
            let rec = self.subjobs[sj_id.0 as usize].ckpt_mut(pe);
            rec.last_at = Some(ctx.now());
            rec.ack_positions.clone_from(&ckpt.input_positions);
            rec.progress = CkptProgress::InFlight;
            ckpts.push(Arc::new(ckpt));
        }
        for &pe in pes {
            self.try_start(ctx, slot_of(pe, replica));
        }
        if ckpts.is_empty() {
            return;
        }
        self.send_reliable(
            ctx,
            primary_machine,
            secondary_machine,
            Msg::Checkpoint {
                subjob: sj_id,
                epoch,
                ckpts,
            },
            MsgClass::Checkpoint,
            elements,
        );
    }

    /// A checkpoint message reached the secondary machine: store it in
    /// memory ("`store_job_state` ... overwrite the old state with the new
    /// one"), refresh the pre-deployed suspended copy, and acknowledge.
    /// A delta updates the restore point in place, and the suspended copy
    /// too when it holds the delta's base; a suspended copy out of step is
    /// restored from the updated point.
    pub(crate) fn on_checkpoint_arrival(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        sj_id: SubjobId,
        epoch: u64,
        ckpts: Vec<Arc<PeCheckpoint>>,
    ) {
        let sj = &self.subjobs[sj_id.0 as usize];
        if sj.is_stale(epoch) || sj.secondary_machine != Some(at) {
            return;
        }
        let standby_replica = sj.primary_replica.other();
        let hybrid = sj.mode == HaMode::Hybrid;
        let primary_machine = sj.primary_machine;
        let mut pes = Vec::with_capacity(ckpts.len());
        for ckpt in ckpts {
            let pe = ckpt.pe;
            // Refresh the suspended hybrid copy's memory directly.
            let record = &mut self.slots[slot_of(pe, standby_replica)];
            let refresh = hybrid && record.copy().is_some_and(PeInstance::is_suspended);
            let in_step = refresh && record.copy().is_some_and(|i| i.follows(&ckpt));
            if in_step {
                record.copy_mut().expect("checked").restore(&ckpt);
            }
            let stored = self.subjobs[sj_id.0 as usize].ckpt_mut(pe).store(ckpt);
            if refresh {
                if !in_step {
                    record.copy_mut().expect("checked").restore(stored);
                }
                record.restart();
            }
            debug_assert!(
                Replica::BOTH.iter().all(|&r| {
                    let copy = self.slots[slot_of(pe, r)].copy();
                    copy.is_none_or(|i| i.holds_outside_moved(stored))
                }),
                "{pe}: a copy on the restore point's basis differs from it outside its moved set"
            );
            pes.push(pe);
        }
        self.send_reliable(
            ctx,
            at,
            primary_machine,
            Msg::CheckpointStored {
                subjob: sj_id,
                epoch,
                pes,
            },
            MsgClass::Control,
            0,
        );
    }

    /// The store-acknowledgment reached the primary: the checkpointed
    /// positions may now be acknowledged upstream, enabling trimming there
    /// (and continuing the sweep).
    pub(crate) fn on_checkpoint_stored(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        sj_id: SubjobId,
        epoch: u64,
        pes: Vec<PeId>,
    ) {
        let sj = &self.subjobs[sj_id.0 as usize];
        if sj.is_stale(epoch) || sj.primary_machine != at {
            return;
        }
        let replica = sj.primary_replica;
        for pe in pes {
            // Only a snapshot in flight completes: a PE already pausing for
            // its next checkpoint stays so, or it would never snapshot again.
            let rec = self.subjobs[sj_id.0 as usize].ckpt_mut(pe);
            if rec.progress == CkptProgress::InFlight {
                rec.progress = CkptProgress::Idle;
            }
            // Lent for the loop and handed back below, so the next snapshot
            // reuses its buffers.
            let positions = std::mem::take(&mut rec.ack_positions);
            self.tracer.emit(
                ctx.now(),
                TraceEvent::CheckpointStored {
                    pe: pe.0,
                    replica: replica_code(replica),
                },
            );
            self.observers
                .metric_inc(sps_metrics::Scope::global("checkpoint"), "stored", 1);
            let from_machine = self.slots[slot_of(pe, replica)].machine();
            for (port, streams) in positions.iter().enumerate() {
                let from = sps_engine::Dest::Pe {
                    inst: sps_engine::InstanceId { pe, replica },
                    port,
                };
                for &(stream, seq) in streams {
                    // Audit tap: the stored checkpoint covers this input
                    // position, which licenses the upstream ack that
                    // follows (§III-B ordering); coverage is emitted first.
                    if self.tracer.is_enabled() && seq > 0 {
                        let (pe, replica, stream) = (pe.0, replica_code(replica), stream.0);
                        let covered = TraceEvent::CheckpointCovered {
                            pe,
                            replica,
                            stream,
                            seq,
                        };
                        self.tracer.emit(ctx.now(), covered);
                        let ack = TraceEvent::AckSent {
                            pe,
                            replica,
                            stream,
                            seq,
                        };
                        self.tracer.emit(ctx.now(), ack);
                    }
                    self.send_acks_for_stream(ctx, from_machine, from, stream, seq);
                }
            }
            let rec = self.subjobs[sj_id.0 as usize].ckpt_mut(pe);
            debug_assert!(rec.ack_positions.is_empty(), "no snapshot while lent");
            rec.ack_positions = positions;
        }
    }
}
