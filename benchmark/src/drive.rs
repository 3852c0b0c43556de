//! Every call the benchmark makes into the repo's crates, and the span it
//! records around each, lives in this file — a later API change touches
//! nothing else. Only public functions are used:
//!
//! * `core`: `Registry::aibench`, `Registry::get`, `Benchmark::build`,
//!   `run_to_quality`, `TrainingSession::{fresh, finished, train_next,
//!   commit, result}`, `RunResult::{converged, deterministic_eq}`,
//!   `ckpt::{snapshot_run, restore_run, fault_injection_run}`,
//!   `distributed::run_distributed_to_quality`;
//! * `fault`: `supervised_run`, `supervised_run_with_sink`;
//! * `ckpt`: `DirSink::new`, the `CheckpointSink` trait;
//! * `dist`: `GradShard::capture`, `tree_reduce`;
//! * `serve`: `ServerCore::{new, submit, step, drain_events,
//!   drain_finished, is_idle, tick_count, schedule_log}`,
//!   `RunRequest::{new, with_priority}`, `ClientMsg`/`ServerMsg`
//!   `to_bytes`/`from_bytes`, `wire::{write_frame, read_frame}`;
//! * `tensor`: `Tensor::{randn, matmul, sum, map}`, `ops::{conv2d,
//!   conv2d_backward_weight}`; `autograd`: `Graph`, `Param`; `nn`: `Adam`;
//! * `parallel`: `ParallelConfig::{with_threads, install}`, `stats`,
//!   `parallel_for`.
//!
//! The thread count is installed here once per process and handed to
//! every runner through `RunConfig.parallel`; `set_threads` and
//! `set_gemm_path` are never called.

use std::path::Path;

use aibench::ckpt::{fault_injection_run, restore_run, snapshot_run, PartialRun};
use aibench::distributed::run_distributed_to_quality;
use aibench::registry::{Benchmark, Registry};
use aibench::runner::{run_to_quality, RunConfig};
use aibench::session::TrainingSession;
use aibench_autograd::{Graph, Param};
use aibench_ckpt::{CheckpointSink, CkptError, DirSink};
use aibench_dist::{tree_reduce, DistConfig, GradShard};
use aibench_fault::{supervised_run, supervised_run_with_sink, FaultSchedule, SupervisorConfig};
use aibench_nn::{Adam, Optimizer};
use aibench_parallel::ParallelConfig;
use aibench_serve::wire::{read_frame, write_frame};
use aibench_serve::{ClientMsg, SchedAction, ServeConfig, ServerCore, ServerMsg};
use aibench_tensor::ops::{self, Conv2dArgs};
use aibench_tensor::{Rng, Tensor};

pub use aibench::runner::RunResult;
pub use aibench_parallel::PoolStats;
pub use aibench_serve::{DoneMsg, Event, ProgressEvent, RunRequest};

use crate::span::{Recorder, NO_SESSION};

/// The suite under test and the thread configuration every call runs at.
pub struct Stack {
    pub registry: Registry,
    pub parallel: ParallelConfig,
}

impl Stack {
    /// Builds the 17-benchmark registry and installs the thread count.
    pub fn new(threads: usize) -> Self {
        let parallel = ParallelConfig::with_threads(threads);
        parallel.install();
        Stack {
            registry: Registry::aibench(),
            parallel,
        }
    }

    /// The 17 benchmark codes, `DC-AI-C1`..`DC-AI-C17`, in registry order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.registry
            .benchmarks()
            .iter()
            .map(|b| b.id.code())
            .collect()
    }

    fn benchmark(&self, code: &str) -> &Benchmark {
        self.registry
            .get(code)
            .unwrap_or_else(|| panic!("benchmark {code} is not in the registry"))
    }

    /// `RunConfig::default()` at this stack's thread count, with an
    /// optional epoch cap.
    fn config(&self, max_epochs: Option<usize>) -> RunConfig {
        let default = RunConfig::default();
        RunConfig {
            max_epochs: max_epochs.unwrap_or(default.max_epochs),
            parallel: Some(self.parallel),
            ..default
        }
    }

    /// One whole session through the closed runner.
    pub fn plain(&self, code: &str, seed: u64, max_epochs: Option<usize>) -> RunResult {
        run_to_quality(self.benchmark(code), seed, &self.config(max_epochs))
    }

    /// The same session through the open, steppable form, with a span
    /// around the build and around each epoch's training and evaluation.
    pub fn stepped(
        &self,
        rec: &mut Recorder,
        code: &str,
        seed: u64,
        max_epochs: Option<usize>,
        session: u64,
    ) -> RunResult {
        let benchmark = self.benchmark(code);
        let config = self.config(max_epochs);
        let root = rec.enter("core.session", session);
        let mut open = rec.leaf("core.build", session, || {
            TrainingSession::fresh(benchmark, seed, &config)
        });
        while !open.finished() {
            let loss = rec.leaf("models.train", session, || open.train_next());
            rec.leaf("models.eval", session, || open.commit(loss));
        }
        let result = open.result();
        rec.exit(root);
        result
    }

    /// One epoch of a fresh session: the suite workloads' warm-up.
    pub fn warm_epoch(&self, code: &str, seed: u64) {
        let mut open = TrainingSession::fresh(self.benchmark(code), seed, &self.config(None));
        let loss = open.train_next();
        std::hint::black_box(open.commit(loss));
    }

    /// A supervised session rolling back through a `DirSink` in `dir`,
    /// snapshotting every epoch. Returns the result and the bytes saved.
    pub fn supervised_on_dir(&self, code: &str, seed: u64, dir: &Path) -> (RunResult, u64) {
        let mut sink = CountingSink::on_dir(dir, code);
        let sup = SupervisorConfig {
            snapshot_every: 1,
            ..SupervisorConfig::default()
        };
        let run = supervised_run_with_sink(
            self.benchmark(code),
            seed,
            &self.config(None),
            &FaultSchedule::empty(),
            &sup,
            &mut sink,
        );
        (run.result, sink.bytes)
    }

    /// The kill-and-resume loop: checkpoint every epoch into a `DirSink`
    /// in `dir`, kill after every epoch, restart until done. Returns the
    /// result, the kills, and the bytes saved.
    pub fn crashloop_on_dir(
        &self,
        code: &str,
        seed: u64,
        dir: &Path,
    ) -> Result<(RunResult, usize, u64), CkptError> {
        let mut sink = CountingSink::on_dir(dir, code);
        let config = RunConfig {
            checkpoint_every: 1,
            ..self.config(None)
        };
        let report = fault_injection_run(self.benchmark(code), seed, &config, &mut sink, 1)?;
        Ok((report.result, report.kills, sink.bytes))
    }

    /// Simulated data-parallel training at `world` workers.
    pub fn distributed(&self, code: &str, seed: u64, world: usize) -> RunResult {
        run_distributed_to_quality(
            self.benchmark(code),
            seed,
            &self.config(None),
            &DistConfig::with_world(world),
        )
        .unwrap_or_else(|| panic!("{code} does not train data-parallel"))
        .result
    }

    /// The request's session through the bare supervised loop with an
    /// in-memory sink: what the server runs per session, minus the server.
    pub fn serial_supervised(&self, request: &RunRequest) -> RunResult {
        let config = RunConfig {
            eval_every: request.eval_every,
            ..self.config(Some(request.max_epochs))
        };
        supervised_run(
            self.benchmark(&request.code),
            request.seed,
            &config,
            &request.faults,
            &SupervisorConfig::default(),
        )
        .result
    }

    /// A fresh in-process server with the given worker budget.
    pub fn server(&self, budget: usize) -> Server<'_> {
        Server(ServerCore::new(
            &self.registry,
            ServeConfig {
                budget,
                ..ServeConfig::default()
            },
        ))
    }
}

/// Whether a session reached its quality target.
pub fn converged(result: &RunResult) -> bool {
    result.converged()
}

/// Bitwise equality of everything training determines.
pub fn same_bits(a: &RunResult, b: &RunResult) -> bool {
    a.deterministic_eq(b)
}

/// The loss and quality bits of a result, for the fingerprint.
pub fn result_bits(result: &RunResult) -> impl Iterator<Item = u64> + '_ {
    let losses = result.loss_trace.iter().map(|l| u64::from(l.to_bits()));
    let qualities = result.quality_trace.iter().map(|(_, q)| q.to_bits());
    losses.chain(qualities)
}

/// Cumulative counters of the process-wide pool.
pub fn pool_stats() -> PoolStats {
    aibench_parallel::stats()
}

/// A `DirSink` that counts the bytes saved through it.
struct CountingSink {
    inner: DirSink,
    bytes: u64,
}

impl CountingSink {
    fn on_dir(dir: &Path, prefix: &str) -> Self {
        CountingSink {
            inner: DirSink::new(dir, prefix).expect("create the checkpoint directory"),
            bytes: 0,
        }
    }
}

impl CheckpointSink for CountingSink {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        self.inner.save(epoch, bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn epochs(&self) -> Vec<usize> {
        self.inner.epochs()
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        self.inner.load(epoch)
    }

    fn remove(&mut self, epoch: usize) {
        self.inner.remove(epoch);
    }
}

/// A clean request at the given priority, evaluating every epoch.
pub fn request(tenant: &str, code: &str, seed: u64, max_epochs: usize, priority: u8) -> RunRequest {
    RunRequest::new(tenant, code, seed, max_epochs).with_priority(priority)
}

/// The in-process server, with a span around each call into it.
pub struct Server<'a>(ServerCore<'a>);

impl Server<'_> {
    /// Submits a request; `None` if the server rejected it.
    pub fn submit(&mut self, rec: &mut Recorder, request: RunRequest) -> Option<u64> {
        rec.leaf("serve.submit", NO_SESSION, || self.0.submit(request).ok())
    }

    /// One scheduler tick.
    pub fn step(&mut self, rec: &mut Recorder) {
        rec.leaf("serve.step", NO_SESSION, || self.0.step());
    }

    /// Everything that happened since the last drain.
    pub fn drain(&mut self, rec: &mut Recorder) -> (Vec<ProgressEvent>, Vec<DoneMsg>) {
        rec.leaf("serve.drain", NO_SESSION, || {
            (self.0.drain_events(), self.0.drain_finished())
        })
    }

    pub fn is_idle(&self) -> bool {
        self.0.is_idle()
    }

    pub fn ticks(&self) -> u64 {
        self.0.tick_count()
    }

    /// Preemption parks so far.
    pub fn parks(&self) -> u64 {
        self.0
            .schedule_log()
            .iter()
            .filter(|e| matches!(e.action, SchedAction::Park { .. }))
            .count() as u64
    }
}

/// One layer probe: `call` runs the measured operation `inner` times.
pub struct Probe<'a> {
    pub name: &'static str,
    pub reps: usize,
    pub inner: usize,
    pub call: Box<dyn FnMut() + 'a>,
}

fn probe<'a>(
    name: &'static str,
    reps: usize,
    inner: usize,
    mut once: impl FnMut() + 'a,
) -> Probe<'a> {
    Probe {
        name,
        reps,
        inner,
        call: Box::new(move || {
            for _ in 0..inner {
                once();
            }
        }),
    }
}

/// The `tensor`, `autograd`, `nn` and `parallel` probes, on
/// `aibench-perf`'s shapes, at the installed thread count. Each reports
/// microseconds per operation.
pub fn kernel_probes() -> Vec<Probe<'static>> {
    use std::hint::black_box;
    let mut rng = Rng::seed_from(7);
    let a256 = Tensor::randn(&[256, 256], &mut rng);
    let b256 = Tensor::randn(&[256, 256], &mut rng);
    let a_thin = Tensor::randn(&[64, 512], &mut rng);
    let b_thin = Tensor::randn(&[512, 256], &mut rng);
    let mut rng = Rng::seed_from(11);
    let x3 = Tensor::randn(&[4, 16, 16, 16], &mut rng);
    let w3 = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let g3 = Tensor::randn(&[4, 32, 16, 16], &mut rng);
    let args3 = Conv2dArgs::new(1, 1);
    let x3_bwd = x3.clone();
    let mut rng = Rng::seed_from(13);
    let million = Tensor::randn(&[1 << 20], &mut rng);
    let wide = Tensor::randn(&[200_000], &mut rng);

    // 1000 four-element ops forward and backward: tape and allocation only.
    let tape_w = Param::new("w", Tensor::randn(&[4], &mut rng));
    let tape_x = Tensor::randn(&[4], &mut rng);

    let adam_p = Param::new("p", Tensor::randn(&[100_000], &mut rng));
    adam_p.accumulate_grad(&Tensor::randn(&[100_000], &mut rng));
    let mut adam = Adam::new(vec![adam_p], 1e-3);

    vec![
        probe("tensor.gemm_256_us", 15, 1, move || {
            black_box(a256.matmul(&b256));
        }),
        probe("tensor.gemm_64x512x256_us", 15, 1, move || {
            black_box(a_thin.matmul(&b_thin));
        }),
        probe("tensor.conv3x3_fwd_us", 25, 1, move || {
            black_box(ops::conv2d(&x3, &w3, args3));
        }),
        probe("tensor.conv3x3_bwd_weight_us", 25, 1, move || {
            black_box(ops::conv2d_backward_weight(&x3_bwd, &g3, (3, 3), args3));
        }),
        probe("tensor.reduce_1m_us", 25, 1, move || {
            black_box(million.sum());
        }),
        probe("tensor.map_200k_us", 25, 1, move || {
            black_box(wide.map(|v| v * 1.0001 + 0.5));
        }),
        probe("autograd.tape_us", 15, 1, move || {
            let mut g = Graph::new();
            let w = g.param(&tape_w);
            let mut acc = g.input(tape_x.clone());
            for _ in 0..500 {
                acc = g.mul(acc, w);
                acc = g.add(acc, w);
            }
            let loss = g.sum(acc);
            g.backward(loss);
            tape_w.zero_grad();
        }),
        probe("nn.adam_step_us", 25, 1, move || adam.step()),
        probe("parallel.dispatch_us", 25, 200, || {
            aibench_parallel::parallel_for(2, 1, |range| {
                black_box(range);
            });
        }),
    ]
}

/// The `ckpt`, `dist` and `serve` probes. `ckpt.snapshot_us` comes with
/// the snapshot's size so the caller can turn it into a rate.
pub fn storage_probes(stack: &Stack, seed: u64) -> (Vec<Probe<'_>>, usize) {
    use std::hint::black_box;
    let benchmark = stack.benchmark("DC-AI-C13");
    let config = stack.config(None);
    let trainer = benchmark.build(seed);
    let snapshot = move || snapshot_run(benchmark, seed, &config, &PartialRun::fresh(), &*trainer);
    let bytes = snapshot();
    let snapshot_len = bytes.len();

    let mut rng = Rng::seed_from(17);
    let shards: Vec<GradShard> = (0..4)
        .map(|rank| {
            let grad = Tensor::randn(&[100_000], &mut rng).into_vec();
            GradShard::capture(rank, 32, 0.5, grad)
        })
        .collect();

    let submit = ClientMsg::Submit(request("tenant-0", "DC-AI-C16", seed, 2, 0));
    let finished = ServerMsg::Done(DoneMsg {
        session: 1,
        outcome_signature: "exhausted".to_string(),
        fault_signature: "clean".to_string(),
        result: stack.plain("DC-AI-C16", seed, Some(2)),
        queue_wait_ticks: 0,
        epochs_executed: 2,
        recoveries: 0,
    });
    let over_the_wire = |payload: Vec<u8>| {
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("write to memory");
        read_frame(&mut framed.as_slice())
            .expect("read from memory")
            .expect("one whole frame")
    };

    let probes = vec![
        probe("ckpt.snapshot_us", 15, 1, move || {
            black_box(snapshot());
        }),
        // Rebuilds the trainer from the seed, as every restore does.
        probe("ckpt.restore_us", 9, 1, move || {
            black_box(restore_run(benchmark, seed, &config, &bytes).expect("a valid snapshot"));
        }),
        probe("dist.tree_reduce_us", 15, 1, move || {
            let group: Vec<&GradShard> = shards.iter().collect();
            black_box(tree_reduce(&group));
        }),
        probe("serve.wire_roundtrip_us", 25, 10, move || {
            let request = over_the_wire(submit.to_bytes());
            black_box(ClientMsg::from_bytes(&request).expect("a valid submit"));
            let reply = over_the_wire(finished.to_bytes());
            black_box(ServerMsg::from_bytes(&reply).expect("a valid done"));
        }),
    ];
    (probes, snapshot_len)
}
