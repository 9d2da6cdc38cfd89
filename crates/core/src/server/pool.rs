//! The server's worker pool: one bounded FIFO of wire frames and the
//! threads that serve it.
//!
//! Every authentication reaches magshield as a wire frame, and
//! [`Client`](super::Client) is the only way a frame enters the
//! [`FrameQueue`]. Each entry is a frame, the sender its reply goes
//! back on and the instant it was queued; one mutex guards the entries
//! and the `closed` flag, with a not-empty condvar for the workers and a
//! not-full condvar for the submitters.
//!
//! - **Backpressure**: a submit blocks while [`QUEUE_CAPACITY`] frames
//!   wait, so no frame is refused while the pool runs.
//!   `server.queue.depth` is set from the queue length under the lock.
//! - **One panic boundary**: a worker pops the oldest frame, records
//!   `server.queue.wait.seconds` and runs `serve_frame` under one
//!   `catch_unwind`. A panic counts once in `server.worker.panics` and
//!   is answered with an internal-error frame; the worker takes the next
//!   frame. `server.inflight` counts the frames being served.
//! - **Graceful shutdown**: dropping the [`Pool`] closes the queue,
//!   lets the workers drain every admitted frame and joins them. A later
//!   submit is refused as [`ClientError::Disconnected`] and counted once
//!   in `batch.shed{policy,shed_reason="shutdown"}`.

use super::{protocol, serve_frame, ClientError, Shared};
use magshield_obs::labels::Labels;
use magshield_obs::metrics::{Counter, Gauge};
use magshield_obs::sync::{lock, wait};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bound on frames queued (admitted but not yet picked up by a worker).
/// A submitter blocks while the queue holds this many.
const QUEUE_CAPACITY: usize = 256;

/// One admitted frame.
struct Entry {
    frame: Vec<u8>,
    reply: Sender<Vec<u8>>,
    enqueued: Instant,
}

struct State {
    entries: VecDeque<Entry>,
    closed: bool,
}

/// The bounded FIFO of frames between the clients and the workers.
pub(super) struct FrameQueue {
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    /// `server.queue.depth`: the queue length.
    depth: Gauge,
    /// `batch.shed{policy,shed_reason="shutdown"}`.
    shed: Counter,
}

impl FrameQueue {
    fn new(depth: Gauge, shed: Counter) -> Self {
        Self {
            state: Mutex::new(State {
                entries: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth,
            shed,
        }
    }

    /// Queues `frame` and returns the channel its reply arrives on,
    /// blocking while the queue is full. Once the queue is closed the
    /// frame is refused and counted as shed.
    pub(super) fn submit(&self, frame: Vec<u8>) -> Result<Receiver<Vec<u8>>, ClientError> {
        let (reply, rx) = mpsc::channel();
        let mut st = lock(&self.state);
        while !st.closed && st.entries.len() >= QUEUE_CAPACITY {
            st = wait(&self.not_full, st);
        }
        if st.closed {
            drop(st);
            self.shed.inc();
            return Err(ClientError::Disconnected);
        }
        st.entries.push_back(Entry {
            frame,
            reply,
            enqueued: Instant::now(),
        });
        self.depth.set(st.entries.len() as i64);
        drop(st);
        self.not_empty.notify_one();
        Ok(rx)
    }

    /// The oldest frame, blocking while the queue is open and empty;
    /// `None` once it is closed and empty.
    fn pop(&self) -> Option<Entry> {
        let mut st = lock(&self.state);
        loop {
            if let Some(entry) = st.entries.pop_front() {
                self.depth.set(st.entries.len() as i64);
                drop(st);
                self.not_full.notify_one();
                return Some(entry);
            }
            if st.closed {
                return None;
            }
            st = wait(&self.not_empty, st);
        }
    }

    /// Refuses further frames and wakes every waiter; the queued frames
    /// stay for the workers to drain. Idempotent.
    fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The worker threads and the queue they serve.
pub(super) struct Pool {
    /// Shared with the server's clients; it outlives the workers, so a
    /// submit after shutdown is refused rather than lost.
    queue: Arc<FrameQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `shared.cfg.workers` threads serving frames against
    /// `shared`, with the queue's metrics in the system's registry.
    pub(super) fn spawn(shared: &Arc<Shared>) -> Self {
        let registry = shared.system.metrics();
        let shed = Labels::new()
            .policy(shared.cfg.policy.name())
            .shed_reason("shutdown");
        let queue = Arc::new(FrameQueue::new(
            registry.gauge("server.queue.depth"),
            registry.counter_with("batch.shed", &shed),
        ));
        let workers = (0..shared.cfg.workers)
            .map(|id| {
                let (queue, shared) = (Arc::clone(&queue), Arc::clone(shared));
                std::thread::spawn(move || work(id, &queue, &shared))
            })
            .collect();
        Self { queue, workers }
    }

    /// The submitting side, for the server's clients.
    pub(super) fn queue(&self) -> &Arc<FrameQueue> {
        &self.queue
    }
}

/// Graceful shutdown: closes the queue, serves every admitted frame and
/// joins the workers.
impl Drop for Pool {
    fn drop(&mut self) {
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker body: serve frames in arrival order until the queue is closed
/// and empty.
fn work(id: usize, queue: &FrameQueue, shared: &Shared) {
    while let Some(entry) = queue.pop() {
        shared.inflight.inc();
        shared.queue_wait.record(entry.enqueued.elapsed());
        let reply = catch_unwind(AssertUnwindSafe(|| serve_frame(&entry.frame, shared, id)))
            .unwrap_or_else(|_| {
                // Counted before the error frame can reach the client.
                shared.panics.inc();
                protocol::encode_error(0, "internal error: worker panicked")
            });
        shared.inflight.dec();
        // The client may have given up; ignore send errors.
        let _ = entry.reply.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::ExecutionPolicy;
    use crate::scenario::ScenarioBuilder;
    use crate::server::{ServerConfig, VerificationServer};
    use crate::stream::{chunk_session, StreamConfig, StreamOpenInfo};
    use magshield_simkit::rng::SimRng;
    use std::time::Duration;

    fn queue() -> FrameQueue {
        FrameQueue::new(Gauge::default(), Counter::default())
    }

    #[test]
    fn fifo_then_drain_after_close() {
        let q = queue();
        q.submit(vec![1]).unwrap();
        q.submit(vec![2]).unwrap();
        assert_eq!(q.depth.get(), 2);
        q.close();
        assert_eq!(q.submit(vec![3]).err(), Some(ClientError::Disconnected));
        assert_eq!(q.shed.get(), 1);
        let pop = || q.pop().map(|e| e.frame);
        assert_eq!((pop(), pop(), pop()), (Some(vec![1]), Some(vec![2]), None));
        assert_eq!(q.depth.get(), 0);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(queue());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop().map(|e| e.frame))
            })
            .collect();
        let _reply = q.submit(vec![7]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let mut got: Vec<_> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(vec![7])]);
    }

    /// A full queue blocks the submitter instead of refusing it, and
    /// every frame admitted past the bound is still answered.
    #[test]
    fn backpressure_blocks_at_capacity_then_completes() {
        let (sys, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_config(
            sys.with_fresh_obs(),
            ServerConfig {
                workers: 1,
                policy: ExecutionPolicy::ShortCircuit,
                ..ServerConfig::default()
            },
        );
        let registry = srv.metrics().clone();
        let client = srv.client();
        let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(53));
        let stream = client
            .open_stream(
                &StreamOpenInfo::for_session(&session),
                StreamConfig::default(),
            )
            .expect("stream opens");
        // Park the only worker on a chunk of a stream whose slot this
        // test holds locked.
        let slot = lock(&srv.shared.streams)[&stream.stream_id()].clone();
        let held = lock(&slot);
        let queue = Arc::clone(srv.pool.queue());
        let parked = queue
            .submit(protocol::encode_stream_chunk(
                1,
                stream.stream_id(),
                &chunk_session(&session, 9600)[0],
            ))
            .unwrap();
        let picked_up = registry.gauge("server.inflight");
        let waited = Instant::now();
        while picked_up.get() == 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(picked_up.get(), 1, "the worker is parked on the chunk");
        let mut replies: Vec<_> = (0..QUEUE_CAPACITY)
            .map(|i| {
                queue
                    .submit(protocol::encode_health_request(i as u64))
                    .unwrap()
            })
            .collect();
        let depth = registry.gauge("server.queue.depth");
        assert_eq!(depth.get(), QUEUE_CAPACITY as i64);
        // One frame past the bound: its submitter blocks, not sheds.
        let (admitted_tx, admitted) = mpsc::channel();
        let submitter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                admitted_tx
                    .send(queue.submit(protocol::encode_health_request(0)))
                    .unwrap();
            })
        };
        assert!(
            admitted.recv_timeout(Duration::from_millis(200)).is_err(),
            "a full queue blocks the submitter"
        );
        drop(held);
        let last = admitted
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("admitted once the worker frees a slot");
        submitter.join().unwrap();
        replies.push(last);
        parked
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked chunk is answered");
        for reply in replies {
            reply
                .recv_timeout(Duration::from_secs(10))
                .expect("every admitted frame is answered");
        }
        srv.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_family_total("batch.shed"), 0);
        assert_eq!(snap.gauges["server.queue.depth"], 0);
        assert_eq!(snap.gauges["server.inflight"], 0);
    }
}
