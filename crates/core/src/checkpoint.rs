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
use sps_engine::{PeCheckpoint, PeId, Replica, SubjobId};
use sps_metrics::MsgClass;
use sps_sim::Ctx;

use sps_trace::TraceEvent;

use crate::config::{CheckpointProtocol, HaMode, ELEMENT_BYTES};
use crate::message::Msg;
use crate::world::{replica_code, slot_of, Event, HaWorld, SjState, SubjobPending};

impl HaWorld {
    /// Sweeping trigger: called whenever an instance's output queue was
    /// trimmed by an incoming acknowledgment.
    pub(crate) fn maybe_sweep_checkpoint(
        &mut self,
        ctx: &mut Ctx<Event>,
        pe: PeId,
        replica: Replica,
    ) {
        if self.cfg.checkpoint_protocol != CheckpointProtocol::Sweeping {
            return;
        }
        let sj_id = self.job.subjob_of(pe);
        let sj = &self.subjobs[sj_id.0 as usize];
        if !self.checkpoint_preconditions(sj_id, pe, replica) {
            return;
        }
        let due = sj
            .last_ckpt_at
            .get(&pe)
            .is_none_or(|&at| ctx.now().saturating_since(at) >= self.cfg.checkpoint_interval);
        if due {
            self.begin_pe_checkpoint(ctx, sj_id, pe);
        }
    }

    /// Common guards for starting any checkpoint of `pe`'s primary copy.
    fn checkpoint_preconditions(&self, sj_id: SubjobId, pe: PeId, replica: Replica) -> bool {
        let sj = &self.subjobs[sj_id.0 as usize];
        sj.mode.checkpoints()
            && replica == sj.primary_replica
            && sj.secondary_machine.is_some()
            && matches!(sj.state, SjState::Normal | SjState::SwitchedOver)
            && sj.pending.is_none()
            && !sj.pe_ckpt_pausing.contains(&pe)
            && !sj.pe_ckpt_inflight.contains(&pe)
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
        let sj_id = SubjobId(subjob);
        let sj = &self.subjobs[subjob as usize];
        if !sj.mode.checkpoints() || sj.secondary_machine.is_none() {
            return;
        }
        match pe {
            Some(pe) => {
                if self.checkpoint_preconditions(
                    sj_id,
                    pe,
                    self.subjobs[subjob as usize].primary_replica,
                ) {
                    self.begin_pe_checkpoint(ctx, sj_id, pe);
                }
            }
            None => self.begin_sync_checkpoint(ctx, sj_id),
        }
    }

    /// Starts a single-PE checkpoint: pause, then snapshot when quiescent.
    pub(crate) fn begin_pe_checkpoint(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId, pe: PeId) {
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
            self.subjobs[sj_id.0 as usize].pe_ckpt_pausing.insert(pe);
        }
    }

    /// Starts a synchronous whole-subjob checkpoint: pause everything.
    fn begin_sync_checkpoint(&mut self, ctx: &mut Ctx<Event>, sj_id: SubjobId) {
        {
            let sj = &self.subjobs[sj_id.0 as usize];
            if sj.pending.is_some()
                || !matches!(sj.state, SjState::Normal | SjState::SwitchedOver)
                || !self.cluster.machine(sj.primary_machine).is_up()
                || !sj.pe_ckpt_pausing.is_empty()
                || !sj.pe_ckpt_inflight.is_empty()
            {
                return;
            }
        }
        let replica = self.subjobs[sj_id.0 as usize].primary_replica;
        let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
        let mut waiting = std::collections::BTreeSet::new();
        for &pe in &pes {
            let slot = slot_of(pe, replica);
            if let Some(inst) = self.slots[slot].copy_mut() {
                if !inst.request_pause() {
                    waiting.insert(pe);
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
    pub(crate) fn on_pe_quiesced(
        &mut self,
        ctx: &mut Ctx<Event>,
        sj_id: SubjobId,
        pe: PeId,
        replica: Replica,
    ) {
        let sj = &mut self.subjobs[sj_id.0 as usize];
        // Per-PE checkpoint pause (sweeping/individual).
        if replica == sj.primary_replica && sj.pe_ckpt_pausing.remove(&pe) {
            self.snapshot_and_send(ctx, sj_id, &[pe]);
            return;
        }
        // Multi-PE pauses.
        match &mut sj.pending {
            Some(SubjobPending::SyncCheckpoint { waiting }) if replica == sj.primary_replica => {
                waiting.remove(&pe);
                if waiting.is_empty() {
                    sj.pending = None;
                    let pes: Vec<PeId> = self.job.subjob_pes(sj_id).to_vec();
                    self.snapshot_and_send(ctx, sj_id, &pes);
                }
            }
            Some(SubjobPending::RollbackRead { waiting }) if replica != sj.primary_replica => {
                waiting.remove(&pe);
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
            let ckpt = inst.snapshot(ctx.now());
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
            let sj = &mut self.subjobs[sj_id.0 as usize];
            sj.last_ckpt_at.insert(pe, ctx.now());
            sj.snap_positions.insert(pe, ckpt.input_positions.clone());
            sj.pe_ckpt_inflight.insert(pe);
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
            if hybrid {
                let slot = slot_of(pe, standby_replica);
                let record = &mut self.slots[slot];
                if let Some(inst) = record.copy_mut().filter(|i| i.is_suspended()) {
                    inst.restore(&ckpt);
                    record.restart();
                }
            }
            self.subjobs[sj_id.0 as usize].stored.insert(pe, ckpt);
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
        {
            let sj = &self.subjobs[sj_id.0 as usize];
            if sj.is_stale(epoch) || sj.primary_machine != at {
                return;
            }
        }
        let replica = self.subjobs[sj_id.0 as usize].primary_replica;
        for pe in pes {
            self.subjobs[sj_id.0 as usize].pe_ckpt_inflight.remove(&pe);
            self.tracer.emit(
                ctx.now(),
                TraceEvent::CheckpointStored {
                    pe: pe.0,
                    replica: replica_code(replica),
                },
            );
            self.metric_inc(sps_metrics::Scope::global("checkpoint"), "stored", 1);
            let Some(positions) = self.subjobs[sj_id.0 as usize]
                .snap_positions
                .get(&pe)
                .cloned()
            else {
                continue;
            };
            let from_machine = self.slots[slot_of(pe, replica)].machine();
            for (port, streams) in positions.into_iter().enumerate() {
                let from = sps_engine::Dest::Pe {
                    inst: sps_engine::InstanceId { pe, replica },
                    port,
                };
                for (stream, seq) in streams {
                    // Audit tap: the stored checkpoint covers this input
                    // position, which is what licenses the upstream ack
                    // about to be sent (§III-B ordering). Emitted *before*
                    // the ack so the auditor sees coverage first.
                    if self.tracer.is_enabled() && seq > 0 {
                        self.tracer.emit(
                            ctx.now(),
                            TraceEvent::CheckpointCovered {
                                pe: pe.0,
                                replica: replica_code(replica),
                                stream: stream.0,
                                seq,
                            },
                        );
                    }
                    self.send_acks_for_stream(ctx, from_machine, from, stream, seq);
                }
            }
        }
    }
}
