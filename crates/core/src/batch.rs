//! The server's worker pool.
//!
//! The paper's defense runs once per authentication (§VII reports
//! per-stage runtimes), and every authentication reaches magshield as a
//! wire frame: the [`VerificationServer`](crate::server::VerificationServer)
//! is the only way work enters this pool. Each queued item is one frame
//! job — decode, handle, encode the reply — and a worker runs one job at
//! a time, in arrival order.
//!
//! - **Admission control** ([`Gate`]): at most
//!   [`QUEUE_CAPACITY`] jobs wait in the queue; a submitter blocks until
//!   there is room (backpressure), so no frame is refused while the pool
//!   runs. Accounting is RAII ([`QueueSlot`] / [`InflightSlot`]), so the
//!   depth gauge cannot leak on any exit path, including unwinding.
//! - **Panic containment**: every job runs under its own
//!   `catch_unwind`. A panic is counted in `server.worker.panics` and the
//!   worker takes the next job; the server answers a panicking frame
//!   with an error frame.
//! - **Graceful shutdown**: [`BatchEngine::shutdown`] stops admission and
//!   then drains — every job that was admitted still runs and is
//!   answered. A later submit is refused with [`ShuttingDown`], which the
//!   server's client reports as `ClientError::Disconnected`.
//!
//! Observability (the [`DefenseSystem`]'s registry, see DESIGN.md §9):
//! the `server.queue.wait.seconds` (enqueue → pickup) and
//! `server.compute.seconds` (one sample per verification) histograms,
//! the `server.queue.depth` / `server.inflight` gauges, the
//! `batch.verdicts{policy}` counter, the
//! `batch.shed{policy,shed_reason="shutdown"}` counter (one count per
//! refused frame), and `server.worker.panics`, which feeds the SLO
//! engine's panic guard.

use crate::cascade::ExecutionPolicy;
use crate::pipeline::DefenseSystem;
use crate::queue::WorkQueue;
use crate::session::SessionData;
use crate::verdict::DefenseVerdict;
use magshield_obs::labels::Labels;
use magshield_obs::metrics::{Counter, Gauge, Histogram};
use magshield_obs::slo::PANIC_COUNTER;
use magshield_obs::sync::{lock, wait};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound on jobs queued (admitted but not yet picked up by a worker).
/// A submitter blocks while the queue holds this many.
pub(crate) const QUEUE_CAPACITY: usize = 256;

/// The pool has stopped admitting work: the only way a submit is
/// refused. Counted in `batch.shed{policy,shed_reason="shutdown"}`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ShuttingDown;

// ---------- admission gate ----------

struct GateState {
    queued: usize,
    closed: bool,
}

/// A bounded admission gate with RAII slot accounting.
///
/// `admit` hands out a [`QueueSlot`] while the queued count is below
/// [`QUEUE_CAPACITY`] and blocks at the bound. Slots decrement their
/// counts on drop — on *any* exit path, including a panicking worker
/// unwinding with the slot in hand — so the depth gauge can never leak.
/// Every job of a [`BatchEngine`]'s queue holds one of its slots.
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
    depth: Gauge,
    inflight: Gauge,
}

impl Gate {
    /// Claims a queue slot, blocking while the queue is full.
    fn admit(self: &Arc<Self>) -> Result<QueueSlot, ShuttingDown> {
        let mut st = lock(&self.state);
        loop {
            if st.closed {
                return Err(ShuttingDown);
            }
            if st.queued < QUEUE_CAPACITY {
                st.queued += 1;
                self.depth.inc();
                return Ok(QueueSlot {
                    gate: Arc::clone(self),
                });
            }
            st = wait(&self.changed, st);
        }
    }

    /// Closes the gate: every subsequent (and currently blocked) `admit`
    /// returns [`ShuttingDown`]. Idempotent.
    fn close(&self) {
        lock(&self.state).closed = true;
        self.changed.notify_all();
    }
}

/// RAII claim on one queued slot. Dropping it releases the slot;
/// [`QueueSlot::start`] converts it into an [`InflightSlot`] when a
/// worker picks the work up.
struct QueueSlot {
    gate: Arc<Gate>,
}

impl QueueSlot {
    /// Marks the work as picked up: the queue slot is released (freeing
    /// admission capacity) and an in-flight claim is taken in its place.
    fn start(self) -> InflightSlot {
        self.gate.inflight.inc();
        InflightSlot {
            gate: Arc::clone(&self.gate),
        }
        // `self` drops here, releasing the queued count and waking
        // blocked submitters.
    }
}

impl Drop for QueueSlot {
    fn drop(&mut self) {
        let mut st = lock(&self.gate.state);
        st.queued -= 1;
        self.gate.depth.dec();
        self.gate.changed.notify_all();
    }
}

/// RAII claim on one in-flight unit of work.
struct InflightSlot {
    gate: Arc<Gate>,
}

impl Drop for InflightSlot {
    fn drop(&mut self) {
        self.gate.inflight.dec();
    }
}

// ---------- engine ----------

/// One queued unit of work: serving one wire frame. It runs on a pool
/// thread, which hands it the item's [`Worker`] context.
pub(crate) type Job = Box<dyn FnOnce(&Worker<'_>) + Send>;

struct WorkItem {
    slot: QueueSlot,
    enqueued: Instant,
    job: Job,
}

struct EngineObs {
    queue_wait: Histogram,
    compute: Histogram,
    /// `batch.verdicts{policy}`.
    verdicts: Counter,
    /// `batch.shed{policy,shed_reason="shutdown"}`.
    shed: Counter,
    panics: Counter,
}

/// The submitting half of an engine: admission, the queue and the
/// engine's metrics. Shared by the [`BatchEngine`], its workers and the
/// server's clients; it outlives the workers, so a submit after shutdown
/// is refused rather than lost.
pub(crate) struct Intake {
    queue: WorkQueue<WorkItem>,
    gate: Arc<Gate>,
    obs: EngineObs,
}

impl Intake {
    /// Admits one frame `job`, blocking while the queue is full.
    pub(crate) fn submit(&self, job: Job) -> Result<(), ShuttingDown> {
        let slot = self.gate.admit().inspect_err(|_| self.obs.shed.inc())?;
        let item = WorkItem {
            slot,
            enqueued: Instant::now(),
            job,
        };
        self.queue.push(item).map_err(|_| {
            // Shutdown raced the admit; the item (and its slot) just
            // dropped, keeping the books straight.
            self.obs.shed.inc();
            ShuttingDown
        })
    }
}

/// What a [`Job`] sees of the pool thread running it.
pub(crate) struct Worker<'a> {
    /// The worker's index, `0..workers`.
    pub(crate) id: usize,
    /// The trained system the pool shares.
    pub(crate) system: &'a DefenseSystem,
    policy: ExecutionPolicy,
    obs: &'a EngineObs,
}

impl Worker<'_> {
    /// Counts one contained panic in `server.worker.panics`. The engine
    /// counts the panics that reach its `catch_unwind`; a job that
    /// catches its own panic to answer for it counts it here first.
    pub(crate) fn record_panic(&self) {
        self.obs.panics.inc();
    }

    /// Verifies one session under the engine's policy: one compute
    /// sample, one verdict counted.
    pub(crate) fn verify(&self, session: &SessionData) -> DefenseVerdict {
        let t0 = Instant::now();
        let verdict = self.system.verify_with_policy(session, self.policy);
        self.record_verdict(t0.elapsed());
        verdict
    }

    /// Records a verdict reached outside [`Worker::verify`] (a stream's
    /// terminal chunk) and the compute it took.
    pub(crate) fn record_verdict(&self, compute: Duration) {
        self.obs.compute.record(compute);
        self.obs.verdicts.inc();
    }

    /// Records compute that reached no verdict yet (a stream chunk that
    /// left the stream open).
    pub(crate) fn record_compute(&self, compute: Duration) {
        self.obs.compute.record(compute);
    }
}

/// The verification engine: a worker pool pulling jobs one at a time
/// off a bounded, admission-controlled queue.
pub(crate) struct BatchEngine {
    /// Shared with the workers and the server's clients.
    intake: Arc<Intake>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchEngine {
    /// Spawns `workers` threads sharing `system`, verifying under
    /// `policy`.
    ///
    /// Engine metrics are registered in `system`'s own registry, so one
    /// snapshot covers cascade stage histograms and queue behavior side
    /// by side.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub(crate) fn spawn(system: DefenseSystem, workers: usize, policy: ExecutionPolicy) -> Self {
        assert!(workers > 0, "need at least one worker");
        let registry = system.metrics();
        let base = Labels::new().policy(policy.name());
        let intake = Arc::new(Intake {
            queue: WorkQueue::new(),
            gate: Arc::new(Gate {
                state: Mutex::new(GateState {
                    queued: 0,
                    closed: false,
                }),
                changed: Condvar::new(),
                depth: registry.gauge("server.queue.depth"),
                inflight: registry.gauge("server.inflight"),
            }),
            obs: EngineObs {
                queue_wait: registry.histogram("server.queue.wait.seconds"),
                compute: registry.histogram("server.compute.seconds"),
                verdicts: registry.counter_with("batch.verdicts", &base),
                shed: registry.counter_with("batch.shed", &base.shed_reason("shutdown")),
                panics: registry.counter(PANIC_COUNTER),
            },
        });
        let system = Arc::new(system);
        let handles = (0..workers)
            .map(|id| {
                let intake = Arc::clone(&intake);
                let system = Arc::clone(&system);
                std::thread::spawn(move || worker_loop(id, &intake, &system, policy))
            })
            .collect();
        Self {
            intake,
            workers: handles,
        }
    }

    /// The submitting half, for the server's clients.
    pub(crate) fn intake(&self) -> &Arc<Intake> {
        &self.intake
    }

    /// Graceful shutdown: closes admission, runs every admitted job, and
    /// joins the workers. Every accepted frame gets one reply.
    pub(crate) fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.intake.gate.close();
        self.intake.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Worker body: run jobs in arrival order until the queue is closed and
/// empty.
fn worker_loop(id: usize, intake: &Intake, system: &DefenseSystem, policy: ExecutionPolicy) {
    while let Some(item) = intake.queue.pop() {
        // The queue slot converts to an in-flight claim before the job
        // runs, so admission capacity frees up while the gauges still
        // count the work.
        let _inflight = item.slot.start();
        intake.obs.queue_wait.record(item.enqueued.elapsed());
        let worker = Worker {
            id,
            system,
            policy,
            obs: &intake.obs,
        };
        let job = item.job;
        if std::panic::catch_unwind(AssertUnwindSafe(|| job(&worker))).is_err() {
            worker.record_panic();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A full queue blocks the submitter instead of refusing it, and
    /// every job admitted past the bound still runs.
    #[test]
    fn backpressure_blocks_at_capacity_then_completes() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let registry = sys.metrics().clone();
        let engine = BatchEngine::spawn(sys, 1, ExecutionPolicy::ShortCircuit);
        let intake = Arc::clone(engine.intake());
        // Park the only worker until released.
        let (release, parked) = mpsc::channel::<()>();
        let (ran_tx, ran) = mpsc::channel::<()>();
        intake
            .submit(Box::new(move |_| parked.recv().unwrap()))
            .unwrap();
        let picked_up = registry.gauge("server.inflight");
        let waited = Instant::now();
        while picked_up.get() == 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..QUEUE_CAPACITY {
            let ran = ran_tx.clone();
            intake
                .submit(Box::new(move |_| ran.send(()).unwrap()))
                .unwrap();
        }
        let depth = registry.gauge("server.queue.depth");
        assert_eq!(depth.get(), QUEUE_CAPACITY as i64);
        // One job past the bound: its submitter blocks, not sheds.
        let (admitted_tx, admitted) = mpsc::channel();
        let submitter = {
            let intake = Arc::clone(&intake);
            let ran = ran_tx.clone();
            std::thread::spawn(move || {
                let outcome = intake.submit(Box::new(move |_| ran.send(()).unwrap()));
                admitted_tx.send(outcome).unwrap();
            })
        };
        assert!(
            admitted.recv_timeout(Duration::from_millis(200)).is_err(),
            "a full queue blocks the submitter"
        );
        release.send(()).unwrap();
        assert_eq!(
            admitted.recv_timeout(Duration::from_secs(10)).unwrap(),
            Ok(())
        );
        submitter.join().unwrap();
        for _ in 0..=QUEUE_CAPACITY {
            ran.recv_timeout(Duration::from_secs(10))
                .expect("every admitted job runs");
        }
        engine.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_family_total("batch.shed"), 0);
        assert_eq!(snap.gauges["server.queue.depth"], 0);
        assert_eq!(snap.gauges["server.inflight"], 0);
    }
}
