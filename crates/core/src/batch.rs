//! Backpressured verification engine: the crate's one worker pool.
//!
//! The ROADMAP north star is a service absorbing heavy traffic, and the
//! paper's defense runs per-authentication (§VII reports per-stage
//! runtimes) — so throughput and tail latency under load are first-class
//! correctness properties. [`BatchEngine`] is the only pool that runs
//! verification work: in-process callers submit sessions to it, and the
//! [`VerificationServer`](crate::server::VerificationServer) submits its
//! wire frames to it. Each queued item is one job — verify one session,
//! or serve one frame (decode, handle, encode the reply) — and a worker
//! runs one item at a time, in arrival order.
//!
//! - **Admission control** ([`AdmissionGate`]): a bounded queue depth
//!   with a per-engine [`AdmissionPolicy`] — [`Backpressure`] blocks the
//!   submitter until there is room, [`Shed`] refuses immediately with
//!   [`ShedReason::QueueFull`]. Accounting is RAII ([`QueueSlot`] /
//!   [`InflightSlot`]), so the depth gauge cannot leak on any exit path,
//!   including unwinding.
//! - **Panic containment**: every item runs under its own
//!   `catch_unwind`. A panic is counted in `server.worker.panics` and the
//!   worker takes the next item. A panicking session's [`Ticket`]
//!   resolves to [`ShedReason::ShuttingDown`]; the server answers a
//!   panicking frame with an error frame.
//! - **Graceful shutdown**: [`BatchEngine::shutdown`] stops admission
//!   (late submitters see [`ShedReason::ShuttingDown`]) and then drains —
//!   every item that was accepted is still run and answered. Nothing is
//!   ever silently dropped: every [`Ticket`] resolves.
//!
//! A stream's chunks reach the pool as server frames ([`crate::server`]);
//! in-process callers drive [`DefenseSystem::open_stream`] directly.
//!
//! Observability (shared registry with the
//! [`DefenseSystem`], see DESIGN.md §9): under the engine's metric prefix
//! `<p>` (`batch` for [`BatchEngine::spawn`], `server` for the server's
//! pool), the `<p>.queue.wait.seconds` (enqueue → pickup) and
//! `<p>.compute.seconds` (one sample per verification) histograms and the
//! `<p>.queue.depth` / `<p>.inflight` gauges. Whatever the prefix, the
//! `batch.verdicts{policy}` and `batch.shed{policy,shed_reason}`
//! counters, one count per event, whose family totals feed the SLO
//! engine's shed guard, and `server.worker.panics`, which feeds its
//! panic guard.
//!
//! [`Backpressure`]: AdmissionPolicy::Backpressure
//! [`Shed`]: AdmissionPolicy::Shed

use crate::cascade::ExecutionPolicy;
use crate::pipeline::DefenseSystem;
use crate::queue::WorkQueue;
use crate::session::SessionData;
use crate::verdict::DefenseVerdict;
use magshield_obs::labels::Labels;
use magshield_obs::metrics::{Counter, Gauge, Histogram, Registry};
use magshield_obs::sync::{lock, wait};
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a submitter experiences when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a queue slot frees up. No
    /// session is ever refused, at the price of submitter latency —
    /// the right default for in-process callers that can wait.
    #[default]
    Backpressure,
    /// Refuse immediately with [`ShedReason::QueueFull`]. The right
    /// policy for a server that must bound its own memory and tail
    /// latency under overload rather than queueing unboundedly.
    Shed,
}

/// Why a session was shed instead of verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded queue was full under [`AdmissionPolicy::Shed`].
    QueueFull,
    /// The engine was shutting down (or already stopped) when the
    /// session was submitted.
    ShuttingDown,
}

impl ShedReason {
    /// Stable snake_case identifier: the `shed_reason` label value.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::ShuttingDown => "shutdown",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of one submitted session: a full verdict, or an explicit
/// shed. There is no silent third state.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// The session was verified.
    Verdict(DefenseVerdict),
    /// The session was shed without running the cascade.
    Shed(ShedReason),
}

impl BatchOutcome {
    /// The verdict, if the session was verified.
    pub fn verdict(&self) -> Option<&DefenseVerdict> {
        match self {
            BatchOutcome::Verdict(v) => Some(v),
            BatchOutcome::Shed(_) => None,
        }
    }

    /// Whether the session was shed.
    pub fn is_shed(&self) -> bool {
        matches!(self, BatchOutcome::Shed(_))
    }
}

/// Engine sizing and policy.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Worker threads sharing the trained system.
    pub workers: usize,
    /// Bound on items queued (admitted but not yet picked up by a
    /// worker). The admission policy decides what happens at the bound.
    pub queue_capacity: usize,
    /// Cascade execution policy. [`ExecutionPolicy::ShortCircuit`] lets
    /// early stages spare the ASV stage sessions they already rejected;
    /// [`ExecutionPolicy::FullEvaluation`] is supported for workloads
    /// that need re-thresholdable scores.
    pub policy: ExecutionPolicy,
    /// What happens to submitters when the queue is full.
    pub admission: AdmissionPolicy,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            policy: ExecutionPolicy::ShortCircuit,
            admission: AdmissionPolicy::Backpressure,
        }
    }
}

// ---------- admission gate ----------

struct GateState {
    queued: usize,
    inflight: usize,
    closed: bool,
}

struct GateInner {
    state: Mutex<GateState>,
    changed: Condvar,
    capacity: usize,
    policy: AdmissionPolicy,
    depth: Gauge,
    inflight: Gauge,
}

/// A bounded admission gate with RAII slot accounting.
///
/// `admit` hands out a [`QueueSlot`] while the queued count is below
/// capacity; at capacity it blocks ([`AdmissionPolicy::Backpressure`]) or
/// refuses ([`AdmissionPolicy::Shed`]). Slots decrement their counts on
/// drop — on *any* exit path, including a panicking worker unwinding with
/// the slot in hand — so the depth gauge can never leak. Every item of a
/// [`BatchEngine`]'s queue, the
/// [`VerificationServer`](crate::server::VerificationServer)'s frames
/// included, holds one of its slots.
pub struct AdmissionGate {
    inner: Arc<GateInner>,
}

impl AdmissionGate {
    /// A gate bounding the queued count at `capacity`, reporting depth
    /// into `depth` and in-flight work into `inflight`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (nothing could ever be admitted).
    pub fn new(capacity: usize, policy: AdmissionPolicy, depth: Gauge, inflight: Gauge) -> Self {
        assert!(capacity > 0, "admission gate needs capacity > 0");
        Self {
            inner: Arc::new(GateInner {
                state: Mutex::new(GateState {
                    queued: 0,
                    inflight: 0,
                    closed: false,
                }),
                changed: Condvar::new(),
                capacity,
                policy,
                depth,
                inflight,
            }),
        }
    }

    /// Claims a queue slot, blocking or shedding at capacity per the
    /// gate's policy.
    pub fn admit(&self) -> Result<QueueSlot, ShedReason> {
        let mut st = lock(&self.inner.state);
        loop {
            if st.closed {
                return Err(ShedReason::ShuttingDown);
            }
            if st.queued < self.inner.capacity {
                st.queued += 1;
                self.inner.depth.inc();
                return Ok(QueueSlot {
                    inner: Arc::clone(&self.inner),
                });
            }
            match self.inner.policy {
                AdmissionPolicy::Shed => return Err(ShedReason::QueueFull),
                AdmissionPolicy::Backpressure => {
                    st = wait(&self.inner.changed, st);
                }
            }
        }
    }

    /// Closes the gate: every subsequent (and currently blocked) `admit`
    /// returns [`ShedReason::ShuttingDown`]. Idempotent.
    pub fn close(&self) {
        lock(&self.inner.state).closed = true;
        self.inner.changed.notify_all();
    }

    /// Sessions admitted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        lock(&self.inner.state).queued
    }

    /// Blocks until no work is queued or in flight.
    pub fn wait_idle(&self) {
        let mut st = lock(&self.inner.state);
        while st.queued > 0 || st.inflight > 0 {
            st = wait(&self.inner.changed, st);
        }
    }
}

impl Clone for AdmissionGate {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// RAII claim on one queued slot. Dropping it releases the slot;
/// [`QueueSlot::start`] converts it into an [`InflightSlot`] when a
/// worker picks the work up.
pub struct QueueSlot {
    inner: Arc<GateInner>,
}

impl QueueSlot {
    /// Marks the work as picked up: the queue slot is released (freeing
    /// admission capacity) and an in-flight claim is taken in its place.
    pub fn start(self) -> InflightSlot {
        {
            let mut st = lock(&self.inner.state);
            st.inflight += 1;
        }
        self.inner.inflight.inc();
        InflightSlot {
            inner: Arc::clone(&self.inner),
        }
        // `self` drops here, releasing the queued count and notifying
        // waiters — after the in-flight claim is registered, so
        // `wait_idle` never observes a gap.
    }
}

impl Drop for QueueSlot {
    fn drop(&mut self) {
        let mut st = lock(&self.inner.state);
        st.queued -= 1;
        self.inner.depth.dec();
        self.inner.changed.notify_all();
    }
}

/// RAII claim on one in-flight unit of work.
pub struct InflightSlot {
    inner: Arc<GateInner>,
}

impl Drop for InflightSlot {
    fn drop(&mut self) {
        let mut st = lock(&self.inner.state);
        st.inflight -= 1;
        self.inner.inflight.dec();
        self.inner.changed.notify_all();
    }
}

// ---------- engine ----------

/// One queued unit of work: verifying one session, or serving one wire
/// frame. It runs on a pool thread, which hands it the item's [`Worker`]
/// context.
pub(crate) type Job = Box<dyn FnOnce(&Worker<'_>) + Send>;

struct WorkItem {
    slot: QueueSlot,
    enqueued: Instant,
    job: Job,
}

struct EngineObs {
    registry: Registry,
    queue_wait: Histogram,
    compute: Histogram,
    /// `batch.verdicts{policy}`.
    verdicts: Counter,
    /// `batch.shed{policy,shed_reason}`, one handle per [`ShedReason`]
    /// so the shed path (already under pressure by definition) never
    /// re-interns.
    queue_full: Counter,
    shutting_down: Counter,
    panics: Counter,
}

impl EngineObs {
    fn new(registry: Registry, policy: ExecutionPolicy, prefix: &str) -> Self {
        let base = Labels::new().policy(policy.name());
        let shed_for = |reason: ShedReason| {
            registry.counter_with("batch.shed", &base.clone().shed_reason(reason.name()))
        };
        Self {
            queue_wait: registry.histogram(&format!("{prefix}.queue.wait.seconds")),
            compute: registry.histogram(&format!("{prefix}.compute.seconds")),
            verdicts: registry.counter_with("batch.verdicts", &base),
            queue_full: shed_for(ShedReason::QueueFull),
            shutting_down: shed_for(ShedReason::ShuttingDown),
            panics: registry.counter("server.worker.panics"),
            registry,
        }
    }

    fn record_shed(&self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => self.queue_full.inc(),
            ShedReason::ShuttingDown => self.shutting_down.inc(),
        }
    }
}

/// The submitting half of an engine: admission, the queue and the
/// engine's metrics. Shared by the [`BatchEngine`], its workers and the
/// server's clients; it outlives the workers, so a submit after shutdown
/// is refused rather than lost.
pub(crate) struct Intake {
    queue: WorkQueue<WorkItem>,
    gate: AdmissionGate,
    obs: EngineObs,
}

impl Intake {
    /// Admits one `job`: a server frame, or a session's verification.
    pub(crate) fn submit(&self, job: Job) -> Result<(), ShedReason> {
        let slot = self
            .gate
            .admit()
            .inspect_err(|&r| self.obs.record_shed(r))?;
        let item = WorkItem {
            slot,
            enqueued: Instant::now(),
            job,
        };
        self.queue.push(item).map_err(|_| {
            // Shutdown raced the admit; the item (and its slot) just
            // dropped, keeping the books straight.
            self.obs.record_shed(ShedReason::ShuttingDown);
            ShedReason::ShuttingDown
        })
    }

    /// Admits one session; its ticket resolves when a worker has run it.
    fn submit_session(&self, session: Arc<SessionData>) -> Result<Ticket, ShedReason> {
        let (reply, rx) = mpsc::channel();
        let job: Job = Box::new(move |w| {
            // The submitter may have given up; ignore send errors.
            let _ = reply.send(BatchOutcome::Verdict(w.verify(&session)));
        });
        self.submit(job)?;
        Ok(Ticket { rx })
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

/// A handle resolving to the [`BatchOutcome`] of one submitted session.
///
/// Every ticket resolves exactly once: with the verdict, with the shed
/// record, or — if the engine is torn down non-gracefully with the
/// session still queued, or the session's job panicked — with
/// [`ShedReason::ShuttingDown`]. It cannot hang and it cannot be silently
/// dropped.
pub struct Ticket {
    rx: mpsc::Receiver<BatchOutcome>,
}

impl Ticket {
    /// Blocks until the session's outcome is known.
    pub fn wait(self) -> BatchOutcome {
        self.rx
            .recv()
            .unwrap_or(BatchOutcome::Shed(ShedReason::ShuttingDown))
    }
}

/// The verification engine: a worker pool pulling items one at a time
/// off a bounded, admission-controlled queue.
///
/// ```no_run
/// use magshield_core::batch::{BatchConfig, BatchEngine};
/// use magshield_core::scenario::{self, ScenarioBuilder};
/// use magshield_simkit::rng::SimRng;
///
/// let rng = SimRng::from_seed(7);
/// let (system, user) = scenario::bootstrap_system(&rng);
/// let engine = BatchEngine::spawn(system, BatchConfig::default());
/// let sessions: Vec<_> = (0..64)
///     .map(|i| ScenarioBuilder::genuine(&user).capture(&rng.fork_indexed("s", i)))
///     .collect();
/// for outcome in engine.verify_batch(sessions) {
///     println!("{:?}", outcome.verdict().map(|v| v.accepted()));
/// }
/// engine.shutdown();
/// ```
pub struct BatchEngine {
    /// Shared with the workers and the server's clients. A paused engine
    /// (tests) holds its queued items here until it is dropped, which
    /// resolves their tickets.
    intake: Arc<Intake>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchEngine {
    /// Spawns the engine with `cfg.workers` threads sharing `system`.
    ///
    /// Engine metrics are registered in `system`'s own registry, so one
    /// snapshot covers cascade stage histograms and batch queue behavior
    /// side by side.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` or `cfg.queue_capacity` is zero.
    pub fn spawn(system: DefenseSystem, cfg: BatchConfig) -> Self {
        Self::spawn_as(system, cfg, "batch")
    }

    /// [`BatchEngine::spawn`] with its queue and compute metrics named
    /// `<metric_prefix>.*` (the server's pool reports as `server`).
    pub(crate) fn spawn_as(system: DefenseSystem, cfg: BatchConfig, metric_prefix: &str) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        Self::spawn_inner(system, cfg, cfg.workers, metric_prefix)
    }

    /// An engine with a live queue but **no workers**: submissions are
    /// admitted (or shed) but never processed. Deterministic harness for
    /// queue-full and shutdown tests.
    #[doc(hidden)]
    pub fn spawn_paused(system: DefenseSystem, cfg: BatchConfig) -> Self {
        Self::spawn_inner(system, cfg, 0, "batch")
    }

    fn spawn_inner(
        system: DefenseSystem,
        cfg: BatchConfig,
        workers: usize,
        metric_prefix: &str,
    ) -> Self {
        assert!(cfg.queue_capacity > 0, "need queue capacity > 0");
        let registry = system.metrics().clone();
        let intake = Arc::new(Intake {
            queue: WorkQueue::new(),
            gate: AdmissionGate::new(
                cfg.queue_capacity,
                cfg.admission,
                registry.gauge(&format!("{metric_prefix}.queue.depth")),
                registry.gauge(&format!("{metric_prefix}.inflight")),
            ),
            obs: EngineObs::new(registry, cfg.policy, metric_prefix),
        });
        let system = Arc::new(system);
        let handles = (0..workers)
            .map(|id| {
                let intake = Arc::clone(&intake);
                let system = Arc::clone(&system);
                std::thread::spawn(move || worker_loop(id, &intake, &system, cfg.policy))
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

    /// Submits one session for verification, applying admission control.
    ///
    /// Accepts either an owned [`SessionData`] or an `Arc<SessionData>`:
    /// the queue holds sessions behind an `Arc`, so callers replaying a
    /// shared pool (load generators, the server fan-out) enqueue a
    /// pointer clone instead of deep-copying megabytes of audio and IMU
    /// samples per submission.
    pub fn submit(&self, session: impl Into<Arc<SessionData>>) -> Result<Ticket, ShedReason> {
        self.intake.submit_session(session.into())
    }

    /// Verifies a whole batch, preserving input order. Sessions refused
    /// by admission appear as [`BatchOutcome::Shed`] in place; accepted
    /// sessions resolve to verdicts.
    pub fn verify_batch(&self, sessions: Vec<SessionData>) -> Vec<BatchOutcome> {
        let tickets: Vec<Result<Ticket, ShedReason>> =
            sessions.into_iter().map(|s| self.submit(s)).collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(reason) => BatchOutcome::Shed(reason),
            })
            .collect()
    }

    /// Blocks until every admitted item has run and answered.
    pub fn drain(&self) {
        self.intake.gate.wait_idle();
    }

    /// Stops admission without waiting: subsequent submits shed with
    /// [`ShedReason::ShuttingDown`]; already-admitted work keeps flowing
    /// to the workers. Idempotent.
    pub fn initiate_shutdown(&self) {
        self.intake.gate.close();
        self.intake.queue.close();
    }

    /// Graceful shutdown: closes admission, runs every admitted item,
    /// and joins the workers. Every accepted session gets exactly one
    /// verdict, every accepted frame one reply.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// The engine's admission gate (shared-state view for tests and
    /// monitoring).
    pub fn gate(&self) -> &AdmissionGate {
        &self.intake.gate
    }

    /// The metrics registry (shared with the system's pipeline metrics).
    pub fn metrics(&self) -> &Registry {
        &self.intake.obs.registry
    }

    fn stop_and_join(&mut self) {
        self.initiate_shutdown();
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

/// Worker body: run items in arrival order until the queue is closed
/// and empty.
fn worker_loop(id: usize, intake: &Intake, system: &DefenseSystem, policy: ExecutionPolicy) {
    while let Some(item) = intake.queue.pop() {
        // The queue slot converts to an in-flight claim before the job
        // runs, so admission capacity frees up while `wait_idle` still
        // sees the work.
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
    use crate::scenario::ScenarioBuilder;
    use magshield_simkit::prop::prelude::*;
    use magshield_simkit::rng::SimRng;
    use magshield_voice::attacks::AttackKind;
    use magshield_voice::devices::table_iv_catalog;
    use magshield_voice::profile::SpeakerProfile;

    fn genuine(seed: u64) -> SessionData {
        let (_, user) = crate::test_support::shared_tiny_system();
        ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
    }

    fn replay(seed: u64) -> SessionData {
        let (_, user) = crate::test_support::shared_tiny_system();
        let attacker = SpeakerProfile::sample(7, &SimRng::from_seed(1));
        let dev = table_iv_catalog()[0].clone();
        ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker)
            .at_distance(0.05)
            .capture(&SimRng::from_seed(seed))
    }

    fn cfg() -> BatchConfig {
        BatchConfig {
            workers: 2,
            queue_capacity: 64,
            ..BatchConfig::default()
        }
    }

    /// `batch.verdicts{policy="short_circuit"}` or a
    /// `batch.shed{policy="short_circuit",shed_reason}` series.
    fn labeled(engine: &BatchEngine, family: &str, reason: Option<ShedReason>) -> u64 {
        let mut labels = Labels::new().policy(ExecutionPolicy::ShortCircuit.name());
        if let Some(r) = reason {
            labels = labels.shed_reason(r.name());
        }
        engine.metrics().counter_with(family, &labels).get()
    }

    #[test]
    fn batch_verdicts_and_metrics() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let engine = BatchEngine::spawn(sys, cfg());
        let sessions: Vec<_> = (0..6).map(|i| genuine(700 + i)).collect();
        let outcomes = engine.verify_batch(sessions);
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| !o.is_shed()));
        // Replies land just before the in-flight slots release; drain to
        // observe the settled gauges.
        engine.drain();
        assert_eq!(labeled(&engine, "batch.verdicts", None), 6);
        let m = engine.metrics().snapshot();
        assert_eq!(m.histograms["batch.queue.wait.seconds"].count, 6);
        assert_eq!(m.histograms["batch.compute.seconds"].count, 6);
        assert_eq!(m.gauges["batch.queue.depth"], 0, "queue drained");
        assert_eq!(m.gauges["batch.inflight"], 0, "nothing left in flight");
        assert_eq!(m.counter_family_total("batch.shed"), 0);
        engine.shutdown();
    }

    #[test]
    fn shed_policy_refuses_at_capacity_deterministically() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let engine = BatchEngine::spawn_paused(
            sys,
            BatchConfig {
                queue_capacity: 2,
                admission: AdmissionPolicy::Shed,
                ..cfg()
            },
        );
        let t1 = engine.submit(genuine(710)).expect("slot 1");
        let t2 = engine.submit(genuine(711)).expect("slot 2");
        assert_eq!(
            engine.submit(genuine(712)).err(),
            Some(ShedReason::QueueFull)
        );
        assert_eq!(engine.gate().queued(), 2);
        assert_eq!(
            labeled(&engine, "batch.shed", Some(ShedReason::QueueFull)),
            1
        );
        assert_eq!(
            labeled(&engine, "batch.shed", Some(ShedReason::ShuttingDown)),
            0
        );
        assert_eq!(engine.metrics().gauge("batch.queue.depth").get(), 2);
        // Tearing the paused engine down still resolves every ticket —
        // never a silent drop.
        drop(engine);
        assert_eq!(t1.wait(), BatchOutcome::Shed(ShedReason::ShuttingDown));
        assert_eq!(t2.wait(), BatchOutcome::Shed(ShedReason::ShuttingDown));
    }

    #[test]
    fn submit_after_shutdown_sheds() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let engine = BatchEngine::spawn(sys.with_fresh_obs(), cfg());
        engine.initiate_shutdown();
        assert_eq!(
            engine.submit(genuine(720)).err(),
            Some(ShedReason::ShuttingDown)
        );
        assert_eq!(
            labeled(&engine, "batch.shed", Some(ShedReason::ShuttingDown)),
            1
        );
        engine.shutdown();
    }

    /// Each verdict and each shed is one count in its family: the SLO
    /// shed guard sums families, so a second (unlabeled) series per event
    /// would double both sides of its ratio.
    #[test]
    fn each_engine_event_is_counted_once() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        // Two engines on one registry: the running one serves N
        // verdicts, the paused one sheds M submissions at capacity.
        let sys = sys.with_fresh_obs();
        let running = BatchEngine::spawn(sys.clone(), cfg());
        let paused = BatchEngine::spawn_paused(
            sys,
            BatchConfig {
                queue_capacity: 1,
                admission: AdmissionPolicy::Shed,
                ..cfg()
            },
        );
        let (n, m) = (3u64, 4u64);
        let outcomes = running.verify_batch((0..n).map(|i| genuine(730 + i)).collect());
        assert!(outcomes.iter().all(|o| !o.is_shed()));
        let _queued = paused.submit(genuine(735)).expect("one slot");
        for _ in 0..m {
            assert_eq!(
                paused.submit(genuine(736)).err(),
                Some(ShedReason::QueueFull)
            );
        }
        let snap = running.metrics().snapshot();
        assert_eq!(snap.counter_family_total("batch.verdicts"), n);
        assert_eq!(snap.counter_family_total("batch.shed"), m);
        running.shutdown();
    }

    #[test]
    fn backpressure_completes_past_capacity_without_deadlock() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let engine = BatchEngine::spawn(
            sys.with_fresh_obs(),
            BatchConfig {
                workers: 1,
                queue_capacity: 1,
                admission: AdmissionPolicy::Backpressure,
                ..BatchConfig::default()
            },
        );
        // 6 sessions through a 1-deep queue: submits must block, not shed.
        let outcomes = engine.verify_batch((0..6).map(|i| genuine(740 + i)).collect());
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| !o.is_shed()));
        assert_eq!(
            engine
                .metrics()
                .snapshot()
                .counter_family_total("batch.shed"),
            0
        );
        engine.shutdown();
    }

    proptest! {
        // Each case runs the cascade over every session twice (batch +
        // sequential); keep the case count low, the fixture is shared.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The acceptance property: batch-engine verdicts are identical —
        /// decisions, scores, skip records — to sequential per-session
        /// verdicts, under both execution policies.
        #[test]
        fn engine_matches_sequential_verdicts(
            seeds in prop::collection::vec(0u64..5000, 1..6),
            attack_mask in 0u32..64,
            short_circuit in 0u8..2,
        ) {
            let (sys, _) = crate::test_support::shared_tiny_system();
            let policy = if short_circuit == 1 {
                ExecutionPolicy::ShortCircuit
            } else {
                ExecutionPolicy::FullEvaluation
            };
            let sessions: Vec<SessionData> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| {
                    if attack_mask & (1 << i) != 0 {
                        replay(seed)
                    } else {
                        genuine(seed)
                    }
                })
                .collect();
            let sequential: Vec<DefenseVerdict> = sessions
                .iter()
                .map(|s| sys.verify_with_policy(s, policy))
                .collect();
            let engine = BatchEngine::spawn(
                sys.with_fresh_obs(),
                BatchConfig { policy, ..cfg() },
            );
            let outcomes = engine.verify_batch(sessions);
            engine.shutdown();
            prop_assert_eq!(outcomes.len(), sequential.len());
            for (outcome, expected) in outcomes.iter().zip(&sequential) {
                match outcome {
                    BatchOutcome::Verdict(v) => prop_assert_eq!(v, expected),
                    BatchOutcome::Shed(r) => prop_assert!(false, "unexpected shed: {}", r),
                }
            }
        }
    }
}
