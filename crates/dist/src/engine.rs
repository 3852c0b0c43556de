//! The deterministic data-parallel runner: N simulated workers, one shared
//! batch stream, strided shards, an order-stable weighted tree all-reduce,
//! elastic membership at epoch boundaries, and fault-driven recovery.
//!
//! # Determinism contract
//!
//! For a fixed `(factory, seed, DistConfig, RunParams)` the run's entire
//! observable identity — losses, qualities, world trace, fault signatures,
//! reshard count, logical time — is bitwise reproducible at any
//! `AIBENCH_THREADS` setting: worker order is logical rank order, the
//! all-reduce folds in a fixed-fanout tree with thread-invariant chunking,
//! and all randomness flows from the seed. A one-worker group with an empty
//! schedule is bit-identical to plain sequential training because every
//! hook degenerates to the `train_epoch` arithmetic.
//!
//! # Recovery
//!
//! Each epoch starts by cutting an in-memory *boundary snapshot* of every
//! replica (trainer state + cursor state). Mid-epoch faults either proceed
//! with a reweighted all-reduce (`QuarantineShard`, `AbsorbDelay`) or
//! restore the boundary and replay the epoch (`RollbackToSnapshot`,
//! `ExcludeAndReshard` — the latter after removing the failed worker and
//! re-ranking the survivors). Injections are one-shot, so replays make
//! progress. Replayed steps still accrue logical time: recovery is visible
//! in the run's cost accounting.

use std::collections::BTreeMap;

use aibench_ckpt::{
    latest_valid, CheckpointSink, CkptError, PartialRun, Restore as _, Snapshot as _, SnapshotFile,
    State,
};
use aibench_data::shard::ShardedCursor;
use aibench_models::DataParallel;

use crate::fault::{DistAction, DistFaultEvent, DistFaultKind, DistPolicy, DistSchedule};
use crate::membership::{MembershipChange, MembershipPlan, WorkerId};
use crate::reduce::{tree_reduce, GradShard};

/// Snapshot-format marker checked on resume. `v2`: the `progress` section
/// opens with the shared [`PartialRun`] codec.
const FORMAT_TAG: &str = "aibench-dist/v2";

/// Builds one replica trainer from the run seed. Every worker is built from
/// the *same* seed so all replicas start bitwise identical.
pub type ReplicaFactory<'a> = dyn Fn(u64) -> Box<dyn DataParallel> + 'a;

/// Stopping and cadence parameters of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Upper bound on training epochs.
    pub max_epochs: usize,
    /// Evaluate quality every this many epochs (0 behaves as 1); the final
    /// epoch is always evaluated.
    pub eval_every: usize,
    /// Save a group snapshot through the sink every this many epochs
    /// (0 disables saving). Only used by the resumable entry point.
    pub snapshot_every: usize,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            max_epochs: 60,
            eval_every: 1,
            snapshot_every: 0,
        }
    }
}

/// The distributed group: initial size, planned elasticity, fault schedule,
/// and recovery policy.
#[derive(Debug, Clone, Default)]
pub struct DistConfig {
    /// Initial number of workers (ranks `0..world`, worker ids `0..world`).
    pub world: usize,
    /// Planned joins and leaves at epoch boundaries.
    pub membership: MembershipPlan,
    /// Injected faults.
    pub schedule: DistSchedule,
    /// Recovery policy.
    pub policy: DistPolicy,
}

impl DistConfig {
    /// A fault-free, static group of `world` workers.
    pub fn with_world(world: usize) -> Self {
        DistConfig {
            world,
            membership: MembershipPlan::empty(),
            schedule: DistSchedule::empty(),
            policy: DistPolicy::default(),
        }
    }
}

/// The outcome of a distributed training run.
#[derive(Debug, Clone)]
pub struct DistRunResult {
    /// The seed every replica was built from.
    pub seed: u64,
    /// Group size at the start of the run.
    pub initial_world: usize,
    /// The session's progress record — epochs, loss and quality traces,
    /// convergence epoch — committed exactly as a sequential session's.
    pub progress: PartialRun,
    /// `(epoch, live workers)` after each completed epoch.
    pub world_trace: Vec<(usize, usize)>,
    /// Every detected fault and the action taken, in order.
    pub faults: Vec<DistFaultEvent>,
    /// Number of deterministic re-shardings (membership changes and
    /// exclusions).
    pub reshards: usize,
    /// Logical time consumed: one tick per executed step (replayed steps
    /// included) plus absorbed straggler delays.
    pub logical_time: u64,
    /// Epoch of the snapshot this run resumed from, if any.
    pub resumed_from: Option<usize>,
    /// Whether the run aborted (recovery budget exhausted or no live
    /// workers left).
    pub aborted: bool,
}

impl DistRunResult {
    /// Bitwise deterministic identity: every reproducible field compares
    /// equal, floats by bit pattern, faults by signature. `resumed_from`
    /// is excluded — an interrupted-and-resumed run must compare equal to
    /// an uninterrupted one.
    pub fn deterministic_eq(&self, other: &DistRunResult) -> bool {
        self.seed == other.seed
            && self.initial_world == other.initial_world
            && self.progress.bitwise_eq(&other.progress)
            && self.world_trace == other.world_trace
            && self.fault_signatures() == other.fault_signatures()
            && self.reshards == other.reshards
            && self.logical_time == other.logical_time
            && self.aborted == other.aborted
    }

    /// The fault signatures, in order of occurrence.
    pub fn fault_signatures(&self) -> Vec<String> {
        self.faults.iter().map(DistFaultEvent::signature).collect()
    }
}

/// One live worker: stable id, its model replica, its shard cursor.
struct Replica {
    id: WorkerId,
    trainer: Box<dyn DataParallel>,
    cursor: ShardedCursor,
}

/// Per-replica state captured at an epoch boundary for rollback.
struct BoundaryEntry {
    id: WorkerId,
    trainer: State,
    cursor: State,
}

enum Attempt {
    Done(f32),
    Replay,
    Abort,
}

/// The group in flight: its replicas and fault bookkeeping around the
/// [`DistRunResult`] it is accumulating.
struct Session<'a> {
    factory: &'a ReplicaFactory<'a>,
    replicas: Vec<Replica>,
    parked: BTreeMap<WorkerId, (State, State)>,
    consumed: Vec<bool>,
    recoveries: usize,
    run: DistRunResult,
}

impl<'a> Session<'a> {
    fn fresh(factory: &'a ReplicaFactory<'a>, seed: u64, cfg: &DistConfig) -> Self {
        assert!(cfg.world > 0, "distributed world size must be positive");
        let replicas: Vec<Replica> = (0..cfg.world)
            .map(|rank| {
                let trainer = factory(seed);
                let cursor = ShardedCursor::new(
                    trainer.train_len(),
                    trainer.global_batch(),
                    trainer.data_rng(),
                    cfg.world,
                    rank,
                );
                Replica {
                    id: rank as WorkerId,
                    trainer,
                    cursor,
                }
            })
            .collect();
        Session {
            factory,
            replicas,
            parked: BTreeMap::new(),
            consumed: vec![false; cfg.schedule.injections().len()],
            recoveries: 0,
            run: DistRunResult {
                seed,
                initial_world: cfg.world,
                progress: PartialRun::fresh(),
                world_trace: Vec::new(),
                faults: Vec::new(),
                reshards: 0,
                logical_time: 0,
                resumed_from: None,
                aborted: false,
            },
        }
    }

    fn rank_of(&self, id: WorkerId) -> Option<usize> {
        self.replicas.iter().position(|r| r.id == id)
    }

    fn record(
        &mut self,
        epoch: usize,
        step: usize,
        worker: WorkerId,
        fault: DistFaultKind,
        action: DistAction,
        world_after: usize,
    ) {
        self.run.faults.push(DistFaultEvent {
            epoch,
            step,
            worker,
            fault,
            action,
            world_after,
        });
    }

    /// The recoveries that replay the epoch: records `fault` on `worker`
    /// with `action` (`ExcludeAndReshard` removes the worker first,
    /// anything else is a plain `RollbackToSnapshot`), charges the policy's
    /// recovery budget, and restores the boundary. Aborts when the budget
    /// is spent or nobody is left.
    fn recover(
        &mut self,
        (epoch, step): (usize, usize),
        worker: WorkerId,
        fault: DistFaultKind,
        action: DistAction,
        policy: &DistPolicy,
        boundary: &mut Vec<BoundaryEntry>,
    ) -> Attempt {
        let exclude = action == DistAction::ExcludeAndReshard;
        let world_after = self.replicas.len() - usize::from(exclude);
        self.record(epoch, step, worker, fault, action, world_after);
        self.recoveries += 1;
        if self.recoveries > policy.max_recoveries {
            return Attempt::Abort;
        }
        if exclude {
            self.exclude(worker, boundary);
            if self.replicas.is_empty() {
                return Attempt::Abort;
            }
        }
        self.restore_boundary(boundary);
        Attempt::Replay
    }

    fn capture_boundary(&self) -> Vec<BoundaryEntry> {
        self.replicas
            .iter()
            .map(|r| {
                let mut trainer = State::new();
                r.trainer.save_state(&mut trainer);
                let mut cursor = State::new();
                r.cursor.snapshot(&mut cursor, "");
                BoundaryEntry {
                    id: r.id,
                    trainer,
                    cursor,
                }
            })
            .collect()
    }

    /// Restores every live replica from the boundary and re-ranks shards.
    fn restore_boundary(&mut self, boundary: &[BoundaryEntry]) {
        let world = boundary.len();
        debug_assert_eq!(world, self.replicas.len());
        for (rank, entry) in boundary.iter().enumerate() {
            let replica = &mut self.replicas[rank];
            debug_assert_eq!(replica.id, entry.id);
            replica
                .trainer
                .load_state(&entry.trainer)
                .expect("boundary trainer state must round-trip");
            replica
                .cursor
                .restore(&entry.cursor, "")
                .expect("boundary cursor state must round-trip");
            replica.cursor.set_shard(world, rank);
        }
    }

    /// Removes `id` from the group and the boundary; survivors re-rank on
    /// the following `restore_boundary`.
    fn exclude(&mut self, id: WorkerId, boundary: &mut Vec<BoundaryEntry>) {
        if let Some(pos) = self.rank_of(id) {
            self.replicas.remove(pos);
        }
        boundary.retain(|b| b.id != id);
        self.run.reshards += 1;
    }

    /// Applies planned joins and leaves at the boundary entering `epoch`.
    fn apply_membership(&mut self, epoch: usize, plan: &MembershipPlan) {
        let changes: Vec<MembershipChange> = plan.changes_at(epoch).collect();
        if changes.is_empty() {
            return;
        }
        let mut changed = false;
        for change in changes {
            match change {
                MembershipChange::Leave(id) => {
                    if let Some(pos) = self.rank_of(id) {
                        let replica = &self.replicas[pos];
                        let mut trainer = State::new();
                        replica.trainer.save_state(&mut trainer);
                        let mut cursor = State::new();
                        replica.cursor.snapshot(&mut cursor, "");
                        self.parked.insert(id, (trainer, cursor));
                        self.replicas.remove(pos);
                        changed = true;
                    }
                }
                MembershipChange::Join(id) => {
                    if self.rank_of(id).is_some() || self.replicas.is_empty() {
                        continue;
                    }
                    // The joiner syncs to the group's current state: rank 0
                    // donates its trainer state and stream position. Any
                    // parked state for this id is superseded.
                    let mut donor = State::new();
                    self.replicas[0].trainer.save_state(&mut donor);
                    let mut trainer = (self.factory)(self.run.seed);
                    trainer
                        .load_state(&donor)
                        .expect("join state sync must round-trip");
                    let cursor = self.replicas[0].cursor.clone();
                    self.parked.remove(&id);
                    let pos = self.replicas.partition_point(|r| r.id < id);
                    self.replicas.insert(
                        pos,
                        Replica {
                            id,
                            trainer,
                            cursor,
                        },
                    );
                    changed = true;
                }
            }
        }
        if changed {
            self.run.reshards += 1;
            let world = self.replicas.len();
            for (rank, replica) in self.replicas.iter_mut().enumerate() {
                replica.cursor.set_shard(world.max(1), rank);
            }
        }
    }

    /// One attempt at `epoch`. Recovery actions that restore the boundary
    /// return [`Attempt::Replay`]; the caller loops until [`Attempt::Done`].
    fn try_epoch(
        &mut self,
        epoch: usize,
        cfg: &DistConfig,
        boundary: &mut Vec<BoundaryEntry>,
    ) -> Attempt {
        let steps = self.replicas[0].cursor.batches_per_epoch();
        let mut total = 0.0f32;
        let mut count = 0usize;
        for step in 1..=steps {
            let mut delay: u64 = 0;
            // Control faults strike before the step's compute.
            for (i, &inj) in cfg.schedule.injections().iter().enumerate() {
                if self.consumed[i] || inj.epoch != epoch || inj.step != step {
                    continue;
                }
                if self.rank_of(inj.worker).is_none() {
                    // The target already left or was excluded.
                    self.consumed[i] = true;
                    continue;
                }
                match inj.kind {
                    DistFaultKind::WorkerDrop => {
                        self.consumed[i] = true;
                        return self.recover(
                            (epoch, step),
                            inj.worker,
                            inj.kind,
                            DistAction::ExcludeAndReshard,
                            &cfg.policy,
                            boundary,
                        );
                    }
                    DistFaultKind::StragglerDelay { ticks } => {
                        self.consumed[i] = true;
                        let exclude = cfg.policy.straggler == DistAction::ExcludeAndReshard
                            || ticks >= cfg.policy.straggler_exclude_after;
                        if exclude && self.replicas.len() > 1 {
                            return self.recover(
                                (epoch, step),
                                inj.worker,
                                inj.kind,
                                DistAction::ExcludeAndReshard,
                                &cfg.policy,
                                boundary,
                            );
                        }
                        self.record(
                            epoch,
                            step,
                            inj.worker,
                            inj.kind,
                            DistAction::AbsorbDelay,
                            self.replicas.len(),
                        );
                        delay = delay.max(ticks);
                    }
                    // Message faults strike after compute, below.
                    DistFaultKind::CorruptGradShard | DistFaultKind::LostContribution => {}
                }
            }
            // Compute: strict rank order, so results never depend on
            // scheduling. Message faults apply to the captured shard.
            let mut shards: Vec<GradShard> = Vec::new();
            let mut lost: Vec<WorkerId> = Vec::new();
            for rank in 0..self.replicas.len() {
                let id = self.replicas[rank].id;
                let local = self.replicas[rank].cursor.next_batch();
                if local.is_empty() {
                    continue;
                }
                let loss = self.replicas[rank].trainer.forward_backward(&local);
                let grads = gather_grads(self.replicas[rank].trainer.as_ref());
                let mut shard = GradShard::capture(rank, local.len(), loss, grads);
                let mut dropped = false;
                for (i, &inj) in cfg.schedule.injections().iter().enumerate() {
                    if self.consumed[i]
                        || inj.epoch != epoch
                        || inj.step != step
                        || inj.worker != id
                    {
                        continue;
                    }
                    match inj.kind {
                        DistFaultKind::CorruptGradShard => {
                            self.consumed[i] = true;
                            shard.poison();
                        }
                        DistFaultKind::LostContribution => {
                            self.consumed[i] = true;
                            dropped = true;
                        }
                        _ => {}
                    }
                }
                if dropped {
                    lost.push(id);
                } else {
                    shards.push(shard);
                }
            }
            // Detection and recovery: lost contributions …
            for id in lost {
                let kind = DistFaultKind::LostContribution;
                let action = match cfg.policy.lost_contribution {
                    DistAction::QuarantineShard => {
                        // The contribution is already absent; the reduce
                        // reweights over the survivors.
                        let world = self.replicas.len();
                        self.record(epoch, step, id, kind, DistAction::QuarantineShard, world);
                        continue;
                    }
                    DistAction::AbsorbDelay => DistAction::RollbackToSnapshot,
                    action => action,
                };
                return self.recover((epoch, step), id, kind, action, &cfg.policy, boundary);
            }
            // … and corrupted shards, caught by the CRC sentinel.
            let bad_ids: Vec<WorkerId> = shards
                .iter()
                .filter(|s| !s.verify())
                .map(|s| self.replicas[s.rank()].id)
                .collect();
            if let Some(&first_bad) = bad_ids.first() {
                let kind = DistFaultKind::CorruptGradShard;
                match cfg.policy.corrupt_shard {
                    DistAction::QuarantineShard | DistAction::AbsorbDelay => {
                        let world = self.replicas.len();
                        for id in bad_ids {
                            self.record(epoch, step, id, kind, DistAction::QuarantineShard, world);
                        }
                        shards.retain(GradShard::verify);
                    }
                    action => {
                        return self.recover(
                            (epoch, step),
                            first_bad,
                            kind,
                            action,
                            &cfg.policy,
                            boundary,
                        );
                    }
                }
            }
            // All-reduce and synchronized update.
            if !shards.is_empty() {
                let refs: Vec<&GradShard> = shards.iter().collect();
                let (reduced, step_loss) = tree_reduce(&refs);
                for replica in &mut self.replicas {
                    scatter_grads(replica.trainer.as_mut(), &reduced);
                    replica.trainer.apply_update();
                }
                total += step_loss;
                count += 1;
            }
            self.run.logical_time += 1 + delay;
        }
        Attempt::Done(total / count.max(1) as f32)
    }

    /// Trains until the progress record is finished or the group aborts.
    /// One iteration is one committed epoch: the group's training pass in
    /// place of `train_epoch`, then the same [`PartialRun`] commit as a
    /// sequential session. With a `sink`, a group snapshot is saved every
    /// `params.snapshot_every` epochs; a save that fails is an `Err` —
    /// durability was requested and lost.
    fn run_loop(
        &mut self,
        target_met: &dyn Fn(f64) -> bool,
        params: &RunParams,
        cfg: &DistConfig,
        mut sink: Option<&mut dyn CheckpointSink>,
    ) -> Result<(), CkptError> {
        'epochs: while !self.run.progress.finished(params.max_epochs) {
            let epoch = self.run.progress.epochs_run + 1;
            self.apply_membership(epoch, &cfg.membership);
            if self.replicas.is_empty() {
                self.run.aborted = true;
                break;
            }
            let mut boundary = self.capture_boundary();
            let mean_loss = loop {
                match self.try_epoch(epoch, cfg, &mut boundary) {
                    Attempt::Done(loss) => break loss,
                    Attempt::Replay => continue,
                    Attempt::Abort => {
                        self.run.aborted = true;
                        break 'epochs;
                    }
                }
            };
            self.run.world_trace.push((epoch, self.replicas.len()));
            if self
                .run
                .progress
                .record_loss(mean_loss, params.eval_every, params.max_epochs)
            {
                let quality = self.replicas[0].trainer.evaluate();
                self.run
                    .progress
                    .record_quality(quality, target_met(quality));
            }
            if let Some(sink) = sink.as_deref_mut() {
                if params.snapshot_every > 0 && epoch.is_multiple_of(params.snapshot_every) {
                    sink.save(epoch, &self.to_snapshot().to_bytes())?;
                }
            }
        }
        Ok(())
    }

    fn to_snapshot(&self) -> SnapshotFile {
        let mut file = SnapshotFile::new();
        let mut meta = State::new();
        meta.put_str("format", FORMAT_TAG);
        meta.put_u64("seed", self.run.seed);
        meta.put_usize("initial_world", self.run.initial_world);
        meta.put_u64s(
            "live",
            self.replicas.iter().map(|r| u64::from(r.id)).collect(),
        );
        meta.put_u64s(
            "parked",
            self.parked.keys().map(|&id| u64::from(id)).collect(),
        );
        file.push("meta", meta);
        let run = &self.run;
        let mut prog = State::new();
        run.progress.put_state(&mut prog);
        prog.put_u64s(
            "world_epochs",
            run.world_trace.iter().map(|&(e, _)| e as u64).collect(),
        );
        prog.put_u64s(
            "world_sizes",
            run.world_trace.iter().map(|&(_, w)| w as u64).collect(),
        );
        prog.put_usize("reshards", run.reshards);
        prog.put_u64("logical_time", run.logical_time);
        prog.put_usize("recoveries", self.recoveries);
        prog.put_bool("aborted", run.aborted);
        prog.put_u64s(
            "fault_epochs",
            run.faults.iter().map(|f| f.epoch as u64).collect(),
        );
        prog.put_u64s(
            "fault_steps",
            run.faults.iter().map(|f| f.step as u64).collect(),
        );
        prog.put_u64s(
            "fault_workers",
            run.faults.iter().map(|f| u64::from(f.worker)).collect(),
        );
        prog.put_u64s(
            "fault_kinds",
            run.faults.iter().map(|f| kind_code(f.fault)).collect(),
        );
        prog.put_u64s(
            "fault_ticks",
            run.faults
                .iter()
                .map(|f| match f.fault {
                    DistFaultKind::StragglerDelay { ticks } => ticks,
                    _ => 0,
                })
                .collect(),
        );
        prog.put_u64s(
            "fault_actions",
            run.faults.iter().map(|f| action_code(f.action)).collect(),
        );
        prog.put_u64s(
            "fault_world_after",
            run.faults.iter().map(|f| f.world_after as u64).collect(),
        );
        file.push("progress", prog);
        for replica in &self.replicas {
            let mut trainer = State::new();
            replica.trainer.save_state(&mut trainer);
            file.push(format!("worker-{}", replica.id), trainer);
            let mut cursor = State::new();
            replica.cursor.snapshot(&mut cursor, "");
            file.push(format!("cursor-{}", replica.id), cursor);
        }
        for (id, (trainer, cursor)) in &self.parked {
            file.push(format!("parked-{id}"), trainer.clone());
            file.push(format!("parked-cursor-{id}"), cursor.clone());
        }
        file
    }

    fn from_snapshot(
        factory: &'a ReplicaFactory<'a>,
        seed: u64,
        cfg: &DistConfig,
        bytes: &[u8],
    ) -> Result<Self, CkptError> {
        let file = SnapshotFile::from_bytes(bytes)?;
        let meta = file.section("meta")?;
        if meta.str("format")? != FORMAT_TAG {
            return Err(CkptError::MetaMismatch {
                what: "snapshot is not an aibench-dist group snapshot".into(),
            });
        }
        if meta.u64("seed")? != seed {
            return Err(CkptError::MetaMismatch {
                what: format!("snapshot seed {} != requested {seed}", meta.u64("seed")?),
            });
        }
        if meta.usize("initial_world")? != cfg.world {
            return Err(CkptError::MetaMismatch {
                what: format!(
                    "snapshot initial world {} != configured {}",
                    meta.usize("initial_world")?,
                    cfg.world
                ),
            });
        }
        let live = meta.u64s("live")?.to_vec();
        if live.is_empty() {
            return Err(CkptError::MetaMismatch {
                what: "snapshot has no live workers".into(),
            });
        }
        let world = live.len();
        let mut replicas = Vec::with_capacity(world);
        for (rank, &id) in live.iter().enumerate() {
            let id = id as WorkerId;
            let mut trainer = factory(seed);
            trainer.load_state(file.section(&format!("worker-{id}"))?)?;
            let mut cursor = ShardedCursor::new(
                trainer.train_len(),
                trainer.global_batch(),
                trainer.data_rng(),
                world,
                rank,
            );
            cursor.restore(file.section(&format!("cursor-{id}"))?, "")?;
            cursor.set_shard(world, rank);
            replicas.push(Replica {
                id,
                trainer,
                cursor,
            });
        }
        let mut parked = BTreeMap::new();
        for &id in meta.u64s("parked")? {
            let id = id as WorkerId;
            parked.insert(
                id,
                (
                    file.section(&format!("parked-{id}"))?.clone(),
                    file.section(&format!("parked-cursor-{id}"))?.clone(),
                ),
            );
        }
        let prog = file.section("progress")?;
        let world_epochs = prog.u64s("world_epochs")?;
        let world_sizes = prog.u64s("world_sizes")?;
        if world_epochs.len() != world_sizes.len() {
            return Err(CkptError::MetaMismatch {
                what: "world trace arrays disagree in length".into(),
            });
        }
        Ok(Session {
            factory,
            replicas,
            parked,
            consumed: vec![false; cfg.schedule.injections().len()],
            recoveries: prog.usize("recoveries")?,
            run: DistRunResult {
                seed,
                initial_world: cfg.world,
                progress: PartialRun::from_state(prog)?,
                world_trace: world_epochs
                    .iter()
                    .zip(world_sizes)
                    .map(|(&e, &w)| (e as usize, w as usize))
                    .collect(),
                faults: decode_faults(prog)?,
                reshards: prog.usize("reshards")?,
                logical_time: prog.u64("logical_time")?,
                resumed_from: None,
                aborted: prog.bool("aborted")?,
            },
        })
    }
}

fn kind_code(kind: DistFaultKind) -> u64 {
    match kind {
        DistFaultKind::StragglerDelay { .. } => 0,
        DistFaultKind::WorkerDrop => 1,
        DistFaultKind::CorruptGradShard => 2,
        DistFaultKind::LostContribution => 3,
    }
}

fn action_code(action: DistAction) -> u64 {
    match action {
        DistAction::ExcludeAndReshard => 0,
        DistAction::RollbackToSnapshot => 1,
        DistAction::QuarantineShard => 2,
        DistAction::AbsorbDelay => 3,
    }
}

fn decode_faults(prog: &State) -> Result<Vec<DistFaultEvent>, CkptError> {
    let epochs = prog.u64s("fault_epochs")?;
    let steps = prog.u64s("fault_steps")?;
    let workers = prog.u64s("fault_workers")?;
    let kinds = prog.u64s("fault_kinds")?;
    let ticks = prog.u64s("fault_ticks")?;
    let actions = prog.u64s("fault_actions")?;
    let world_after = prog.u64s("fault_world_after")?;
    let n = epochs.len();
    if [steps, workers, kinds, ticks, actions, world_after]
        .iter()
        .any(|a| a.len() != n)
    {
        return Err(CkptError::MetaMismatch {
            what: "fault log arrays disagree in length".into(),
        });
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let fault = match kinds[i] {
            0 => DistFaultKind::StragglerDelay { ticks: ticks[i] },
            1 => DistFaultKind::WorkerDrop,
            2 => DistFaultKind::CorruptGradShard,
            3 => DistFaultKind::LostContribution,
            other => {
                return Err(CkptError::MetaMismatch {
                    what: format!("unknown fault kind code {other}"),
                })
            }
        };
        let action = match actions[i] {
            0 => DistAction::ExcludeAndReshard,
            1 => DistAction::RollbackToSnapshot,
            2 => DistAction::QuarantineShard,
            3 => DistAction::AbsorbDelay,
            other => {
                return Err(CkptError::MetaMismatch {
                    what: format!("unknown fault action code {other}"),
                })
            }
        };
        out.push(DistFaultEvent {
            epoch: epochs[i] as usize,
            step: steps[i] as usize,
            worker: workers[i] as WorkerId,
            fault,
            action,
            world_after: world_after[i] as usize,
        });
    }
    Ok(out)
}

/// Flattens every parameter gradient, in [`aibench_models::Trainer::params`]
/// order, into one vector.
fn gather_grads(trainer: &dyn DataParallel) -> Vec<f32> {
    let mut out = Vec::new();
    for param in trainer.params() {
        out.extend_from_slice(param.grad().data());
    }
    out
}

/// Writes the reduced global gradient back over every parameter gradient.
fn scatter_grads(trainer: &mut dyn DataParallel, reduced: &[f32]) {
    let mut offset = 0;
    for param in trainer.params() {
        let mut grad = param.grad_mut();
        let data = grad.data_mut();
        data.copy_from_slice(&reduced[offset..offset + data.len()]);
        offset += data.len();
    }
    assert_eq!(offset, reduced.len(), "reduced gradient length mismatch");
}

/// Runs `max_epochs` of simulated data-parallel training (or until
/// `target_met` holds at an evaluation), starting `cfg.world` workers from
/// `seed`. See the module docs for the determinism contract.
pub fn run_data_parallel(
    factory: &ReplicaFactory<'_>,
    seed: u64,
    target_met: &dyn Fn(f64) -> bool,
    params: &RunParams,
    cfg: &DistConfig,
) -> DistRunResult {
    let mut session = Session::fresh(factory, seed, cfg);
    session
        .run_loop(target_met, params, cfg, None)
        .expect("a run without a sink saves nothing");
    session.run
}

/// Like [`run_data_parallel`], but resumes from the newest valid snapshot in
/// `sink` (if any) and saves a group snapshot every
/// [`RunParams::snapshot_every`] epochs.
///
/// Snapshots are cut at epoch boundaries only, so a resumed run re-enters
/// its next epoch exactly where an uninterrupted run would, re-fires the
/// same injections, and produces a [`DistRunResult`] that is
/// `deterministic_eq` to the uninterrupted one. Snapshots that fail
/// validation are skipped in favor of older ones; a snapshot that cannot
/// be *written* is an `Err`, exactly as in the sequential resumable runner.
pub fn run_data_parallel_resumable(
    factory: &ReplicaFactory<'_>,
    seed: u64,
    target_met: &dyn Fn(f64) -> bool,
    params: &RunParams,
    cfg: &DistConfig,
    sink: &mut dyn CheckpointSink,
) -> Result<DistRunResult, CkptError> {
    let resumed = latest_valid(sink, false, |bytes| {
        Session::from_snapshot(factory, seed, cfg, bytes)
    });
    let mut session = match resumed {
        Some((epoch, mut session)) => {
            session.run.resumed_from = Some(epoch);
            session
        }
        None => Session::fresh(factory, seed, cfg),
    };
    session.run_loop(target_met, params, cfg, Some(sink))?;
    Ok(session.run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aibench_models::scaled::SpatialTransformer;

    fn factory(seed: u64) -> Box<dyn DataParallel> {
        Box::new(SpatialTransformer::new(seed))
    }

    fn short(max_epochs: usize) -> RunParams {
        RunParams {
            max_epochs,
            eval_every: 1,
            snapshot_every: 0,
        }
    }

    #[test]
    fn static_group_trains_and_traces_world() {
        let cfg = DistConfig::with_world(2);
        let res = run_data_parallel(&factory, 7, &|_| false, &short(2), &cfg);
        assert_eq!(res.progress.epochs_run, 2);
        assert_eq!(res.world_trace, vec![(1, 2), (2, 2)]);
        assert_eq!(res.progress.loss_trace.len(), 2);
        assert!(res.progress.loss_trace.iter().all(|l| l.is_finite()));
        assert!(!res.aborted);
        assert_eq!(res.reshards, 0);
        assert_eq!(res.logical_time, 2 * 6);
    }

    #[test]
    fn planned_leave_and_join_reshard_the_group() {
        let mut cfg = DistConfig::with_world(3);
        cfg.membership = MembershipPlan::empty().leave(2, 1).join(3, 5);
        let res = run_data_parallel(&factory, 3, &|_| false, &short(3), &cfg);
        assert_eq!(res.world_trace, vec![(1, 3), (2, 2), (3, 3)]);
        assert_eq!(res.reshards, 2);
        assert!(!res.aborted);
    }

    #[test]
    fn everyone_leaving_aborts() {
        let mut cfg = DistConfig::with_world(1);
        cfg.membership = MembershipPlan::empty().leave(2, 0);
        let res = run_data_parallel(&factory, 3, &|_| false, &short(4), &cfg);
        assert!(res.aborted);
        assert_eq!(res.progress.epochs_run, 1);
    }

    #[test]
    fn recovery_budget_exhaustion_aborts() {
        let mut cfg = DistConfig::with_world(2);
        cfg.policy.max_recoveries = 0;
        cfg.schedule = DistSchedule::empty().inject(1, 2, 1, DistFaultKind::WorkerDrop);
        let res = run_data_parallel(&factory, 3, &|_| false, &short(2), &cfg);
        assert!(res.aborted);
        assert_eq!(
            res.fault_signatures(),
            vec!["e1s2w1:worker-drop>exclude-reshard"]
        );
    }

    #[test]
    fn quarantine_keeps_membership() {
        let mut cfg = DistConfig::with_world(2);
        cfg.schedule = DistSchedule::empty().inject(1, 1, 0, DistFaultKind::CorruptGradShard);
        let res = run_data_parallel(&factory, 5, &|_| false, &short(1), &cfg);
        assert!(!res.aborted);
        assert_eq!(res.world_trace, vec![(1, 2)]);
        assert_eq!(
            res.fault_signatures(),
            vec!["e1s1w0:corrupt-grad-shard>shard-quarantine"]
        );
        assert_eq!(res.reshards, 0);
    }
}
