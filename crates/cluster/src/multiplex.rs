//! A long-running pool multiplexing many campaigns' chains.
//!
//! [`ParallelSession`](crate::ParallelSession) pumps **one** explorer
//! through the pool; a campaign has a whole matrix of independent cells
//! (`target × strategy × seed`), each a complete exploration session.
//! [`MultiplexPool`] parallelizes at cell granularity: one worker pool
//! that can outlive any campaign, accepts new chain sets while old ones
//! are still running, and shares the workers fairly among them.
//! Submissions are **streams** (one per campaign), each a set of
//! [`CellChain`]s, and the pool picks runnable cells round-robin *across
//! streams*, so a freshly submitted small campaign starts making progress
//! immediately instead of queueing behind a week-long one. The one-shot
//! campaign driver submits a single stream and waits for it; the
//! campaign service submits one stream per campaign.
//!
//! The determinism contract: a chain's cells run serialized in order,
//! each seeing state folded from its predecessors, and state never
//! crosses chains — so every outcome is a pure function of its chain's
//! initial state and cell order, no matter how streams interleave on the
//! wall clock or how wide the pool is. Fairness decides *when* a cell
//! runs, never *what it computes*. That is what lets an interrupted
//! campaign resume to an identical corpus on a pool of any width.
//!
//! Completion callbacks are per-stream and run with **no pool lock
//! held** (each stream's callback serializes on its own mutex), so a
//! campaign service can checkpoint snapshots from the callback without
//! stalling the pool. [`MultiplexPool::drain`] is the graceful
//! shutdown: stop picking new cells, let in-flight cells finish (and
//! checkpoint), join the workers — the un-run cells stay durable in
//! whatever snapshots the callbacks maintain.
//!
//! ## Panic quarantine
//!
//! A cell that panics (or whose state-fold panics) must not take the
//! pool down with it: the worker catches the unwind, marks the owning
//! chain **dead** — its threaded state is lost mid-fold, so none of its
//! remaining cells may run — and delivers
//! [`CellResult::Quarantined`] to the stream's callback so the owner
//! can record the failure durably. Every other chain and stream keeps
//! running; the worker survives to pick the next cell. Only a panic in
//! the *callback itself* still kills a worker (the owner's accounting
//! is broken at that point), and that is re-raised at [`drain`].
//!
//! [`drain`]: MultiplexPool::drain

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};

/// Identifies one submitted stream (campaign) within a pool.
pub type StreamId = u64;

/// A dependency chain of cells: they run serialized, in order, threading
/// `state` from each finished cell into the next.
pub struct CellChain<S, C> {
    /// State visible to every cell of the chain, updated after each cell
    /// completes (e.g. the deduped failure traces found so far).
    pub state: S,
    /// The chain's cells, in dependency order.
    pub cells: Vec<C>,
}

/// How one picked cell ended, as delivered to its stream's callback.
#[derive(Debug)]
pub enum CellResult<C, O> {
    /// The cell ran to completion; here is its outcome.
    Done(O),
    /// The cell (or the fold of its outcome into the chain state)
    /// panicked. The owning chain is quarantined: its state is lost,
    /// none of its remaining cells will run, and the pool keeps serving
    /// every other chain and stream.
    Quarantined {
        /// The cell that panicked.
        cell: C,
        /// The panic payload, rendered as text.
        reason: String,
        /// How many queued cells of the chain were abandoned.
        abandoned: usize,
    },
}

type RunFn<S, C, O> = dyn Fn(&C, &S) -> O + Send + Sync;
type UpdateFn<S, C, O> = dyn Fn(&mut S, &C, &O) + Send + Sync;
type CompleteFn<C, O> = dyn FnMut(CellResult<C, O>) + Send;

/// One chain of a stream: its threaded state (absent while a cell of
/// the chain is in flight on a worker) and the cells still to run. A
/// `dead` chain was quarantined by a panic: its state is gone for good
/// and its remaining cells were dropped.
struct ChainSlot<S, C> {
    state: Option<S>,
    cells: VecDeque<C>,
    dead: bool,
}

/// One submitted campaign: its chains plus the per-stream completion
/// callback. The callback lives behind its own mutex so workers invoke
/// it after releasing the pool lock — completions of one stream
/// serialize (they typically checkpoint one snapshot), but never block
/// the pool or other streams' callbacks.
struct Stream<S, C, O> {
    chains: Vec<ChainSlot<S, C>>,
    on_complete: Arc<Mutex<Box<CompleteFn<C, O>>>>,
}

impl<S, C, O> Stream<S, C, O> {
    /// Whether nothing of this stream remains: every chain is either
    /// quarantined or has no queued cells and no state checked out to a
    /// worker.
    fn exhausted(&self) -> bool {
        self.chains
            .iter()
            .all(|c| c.dead || (c.cells.is_empty() && c.state.is_some()))
    }
}

struct PoolState<S, C, O> {
    streams: BTreeMap<StreamId, Stream<S, C, O>>,
    /// The last stream a cell was picked from; the next pick scans
    /// strictly after it (wrapping), which is the round-robin.
    cursor: StreamId,
    next_id: StreamId,
    in_flight: usize,
    stopping: bool,
}

struct Inner<S, C, O> {
    run_cell: Box<RunFn<S, C, O>>,
    update: Box<UpdateFn<S, C, O>>,
    state: Mutex<PoolState<S, C, O>>,
    work_cv: Condvar,
    idle_cv: Condvar,
}

/// A persistent worker pool multiplexing many streams of cell chains —
/// the execution substrate of the campaign service. See the module docs
/// for the scheduling and determinism contract.
pub struct MultiplexPool<S, C, O> {
    inner: Arc<Inner<S, C, O>>,
    workers: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<S, C, O> MultiplexPool<S, C, O>
where
    S: Send + 'static,
    C: Send + 'static,
    O: Send + 'static,
{
    /// Starts a pool of `workers` threads. `run_cell(cell, &state)`
    /// executes one cell; `update(&mut state, &cell, &outcome)` folds
    /// the outcome into the chain state before the chain's next cell —
    /// both shared by every stream (every campaign runs the same cell
    /// function; what differs per campaign is the chains and the
    /// completion callback).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new<F, U>(workers: usize, run_cell: F, update: U) -> Self
    where
        F: Fn(&C, &S) -> O + Send + Sync + 'static,
        U: Fn(&mut S, &C, &O) + Send + Sync + 'static,
    {
        assert!(workers > 0, "need at least one pool worker");
        let inner = Arc::new(Inner {
            run_cell: Box::new(run_cell),
            update: Box::new(update),
            state: Mutex::new(PoolState {
                streams: BTreeMap::new(),
                cursor: 0,
                next_id: 1,
                in_flight: 0,
                stopping: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        MultiplexPool {
            inner,
            workers,
            handles: Mutex::new(handles),
        }
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits one stream (campaign): its chains, plus the callback that
    /// receives each cell's [`CellResult`] — the outcome on completion,
    /// or the quarantine notice if the cell panicked. The callback runs
    /// on a worker thread with no pool lock held; callbacks of one
    /// stream never overlap each other. Returns the stream's id.
    ///
    /// Submitting to a draining pool is accepted but the cells will not
    /// run — the caller's durable state (snapshots) is the source of
    /// truth for what remains, exactly as for cells undrained at
    /// shutdown.
    pub fn submit<G>(&self, chains: Vec<CellChain<S, C>>, on_complete: G) -> StreamId
    where
        G: FnMut(CellResult<C, O>) + Send + 'static,
    {
        let mut st = self.inner.state.lock().expect("pool poisoned");
        let id = st.next_id;
        st.next_id += 1;
        let stream = Stream {
            chains: chains
                .into_iter()
                .map(|chain| ChainSlot {
                    state: Some(chain.state),
                    cells: chain.cells.into(),
                    dead: false,
                })
                .collect(),
            on_complete: Arc::new(Mutex::new(Box::new(on_complete))),
        };
        if !stream.exhausted() {
            st.streams.insert(id, stream);
            self.inner.work_cv.notify_all();
        }
        id
    }

    /// Number of streams with work still queued or in flight.
    pub fn active_streams(&self) -> usize {
        self.inner.state.lock().expect("pool poisoned").streams.len()
    }

    /// Whether the pool has begun draining (no new cells are picked).
    pub fn draining(&self) -> bool {
        self.inner.state.lock().expect("pool poisoned").stopping
    }

    /// Blocks until every submitted stream has fully completed and no
    /// cell is in flight. On a draining pool this returns once the
    /// in-flight cells land, whatever remains queued.
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock().expect("pool poisoned");
        while st.in_flight > 0 || !(st.streams.is_empty() || st.stopping) {
            st = self.inner.idle_cv.wait(st).expect("pool poisoned");
        }
    }

    /// Graceful shutdown: stop picking new cells, let in-flight cells
    /// finish (their callbacks still run, so they checkpoint), join the
    /// workers. Idempotent; also invoked by `Drop` so a pool can never
    /// leak busy threads.
    ///
    /// # Panics
    ///
    /// Cell panics never reach here — they quarantine their chain (see
    /// the module docs). What does propagate at join is a panic in a
    /// stream's *callback*, which is an owner bug the pool must not
    /// swallow.
    pub fn drain(&self) {
        {
            let mut st = self.inner.state.lock().expect("pool poisoned");
            st.stopping = true;
            self.inner.work_cv.notify_all();
        }
        let handles: Vec<_> = self
            .handles
            .lock()
            .expect("pool poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            if let Err(e) = handle.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

impl<S, C, O> Drop for MultiplexPool<S, C, O> {
    fn drop(&mut self) {
        {
            let mut st = match self.inner.state.lock() {
                Ok(st) => st,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.stopping = true;
            self.inner.work_cv.notify_all();
        }
        let handles: Vec<_> = match self.handles.lock() {
            Ok(mut h) => h.drain(..).collect(),
            Err(poisoned) => poisoned.into_inner().drain(..).collect(),
        };
        for handle in handles {
            // A worker that panicked already poisoned the pool; don't
            // double-panic out of Drop.
            let _ = handle.join();
        }
    }
}

/// Picks the next runnable cell round-robin across streams: scan stream
/// ids strictly after the cursor first, wrapping to the front. Within a
/// stream the first chain with its state home and cells queued wins —
/// fairness matters *between* campaigns; a campaign's own chains
/// already fan out as far as their serialization allows.
type Picked<S, C, O> = (StreamId, usize, S, C, Arc<Mutex<Box<CompleteFn<C, O>>>>);

fn pick<S, C, O>(st: &mut PoolState<S, C, O>) -> Option<Picked<S, C, O>> {
    let cursor = st.cursor;
    let after = st
        .streams
        .range((Excluded(cursor), Unbounded))
        .map(|(id, _)| *id);
    let wrapped = st.streams.range(..=cursor).map(|(id, _)| *id);
    let candidate = after.chain(wrapped).find(|id| {
        st.streams[id]
            .chains
            .iter()
            .any(|c| !c.dead && c.state.is_some() && !c.cells.is_empty())
    })?;
    let stream = st.streams.get_mut(&candidate).expect("candidate exists");
    let (chain_idx, slot) = stream
        .chains
        .iter_mut()
        .enumerate()
        .find(|(_, c)| !c.dead && c.state.is_some() && !c.cells.is_empty())
        .expect("candidate had a runnable chain");
    let state = slot.state.take().expect("checked runnable");
    let cell = slot.cells.pop_front().expect("checked non-empty");
    let callback = Arc::clone(&stream.on_complete);
    st.cursor = candidate;
    st.in_flight += 1;
    Some((candidate, chain_idx, state, cell, callback))
}

/// Renders a caught panic payload as text (the common `&str`/`String`
/// payloads of `panic!`; anything else gets a placeholder).
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn worker_loop<S, C, O>(inner: &Inner<S, C, O>) {
    let mut st = inner.state.lock().expect("pool poisoned");
    loop {
        if st.stopping {
            return;
        }
        let Some((stream_id, chain_idx, mut state, cell, callback)) = pick(&mut st) else {
            st = inner.work_cv.wait(st).expect("pool poisoned");
            continue;
        };
        drop(st);

        // The cell run and the state fold are both caller code — either
        // can panic, and either panic leaves the chain's threaded state
        // unusable. Catch the unwind so one poisoned cell quarantines
        // its chain instead of killing the worker (and, at join, the
        // whole pool).
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let outcome = (inner.run_cell)(&cell, &state);
            (inner.update)(&mut state, &cell, &outcome);
            outcome
        }));
        match run {
            Ok(outcome) => {
                // The stream's callback runs with no pool lock held; one
                // stream's completions serialize on the callback's own
                // mutex. It runs *before* the state goes home, so the
                // chain's next cell cannot start (let alone complete)
                // until this cell's callback has finished — a stream
                // observes its chain's outcomes strictly in cell order,
                // which is what lets a service checkpoint after every
                // callback and still resume cleanly.
                (callback.lock().expect("callback poisoned"))(CellResult::Done(outcome));

                st = inner.state.lock().expect("pool poisoned");
                if let Some(stream) = st.streams.get_mut(&stream_id) {
                    stream.chains[chain_idx].state = Some(state);
                    // More than one chain of the stream can be in
                    // flight; only the owning worker returning the
                    // *last* checked-out state can observe exhaustion.
                    if stream.exhausted() {
                        st.streams.remove(&stream_id);
                    }
                }
            }
            Err(payload) => {
                // Quarantine the chain: mark it dead and drop its
                // queued cells under the lock, then notify the stream
                // with no lock held. The half-updated state is
                // discarded — it must never thread into another cell.
                drop(state);
                let abandoned = {
                    let mut st = inner.state.lock().expect("pool poisoned");
                    match st.streams.get_mut(&stream_id) {
                        Some(stream) => {
                            let slot = &mut stream.chains[chain_idx];
                            slot.dead = true;
                            let n = slot.cells.len();
                            slot.cells.clear();
                            n
                        }
                        None => 0,
                    }
                };
                (callback.lock().expect("callback poisoned"))(CellResult::Quarantined {
                    cell,
                    reason: panic_reason(payload.as_ref()),
                    abandoned,
                });

                st = inner.state.lock().expect("pool poisoned");
                if let Some(stream) = st.streams.get_mut(&stream_id) {
                    if stream.exhausted() {
                        st.streams.remove(&stream_id);
                    }
                }
            }
        }
        // `in_flight` is only decremented after the callback has run,
        // so `wait_idle` returning means every delivered result — Done
        // or Quarantined — has been fully processed by its owner.
        st.in_flight -= 1;
        // A returned state can make the chain's next cell runnable, and
        // an exhausted pool must wake `wait_idle`.
        inner.work_cv.notify_all();
        inner.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Traced = (u32, Vec<u32>);

    /// Unwraps a completed cell's outcome; quarantines fail the test.
    fn done_of<C: std::fmt::Debug, O>(res: CellResult<C, O>) -> O {
        match res {
            CellResult::Done(out) => out,
            CellResult::Quarantined { cell, reason, .. } => {
                panic!("unexpected quarantine of {cell:?}: {reason}")
            }
        }
    }

    /// A pool whose cells append themselves to the chain state and
    /// return `(cell, state-before)`.
    fn tracing_pool(workers: usize, delay_ms: u64) -> MultiplexPool<Vec<u32>, u32, Traced> {
        MultiplexPool::new(
            workers,
            move |&cell: &u32, state: &Vec<u32>| {
                if delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                (cell, state.clone())
            },
            |state, &cell, _| state.push(cell),
        )
    }

    fn chain(cells: &[u32]) -> CellChain<Vec<u32>, u32> {
        CellChain {
            state: Vec::new(),
            cells: cells.to_vec(),
        }
    }

    #[test]
    fn chains_serialize_and_thread_state_across_streams() {
        let pool = tracing_pool(4, 0);
        let done: Arc<Mutex<Vec<Traced>>> = Arc::new(Mutex::new(Vec::new()));
        for k in 0..3u32 {
            let done = Arc::clone(&done);
            pool.submit(vec![chain(&[k * 10, k * 10 + 1, k * 10 + 2])], move |res| {
                done.lock().unwrap().push(done_of(res));
            });
        }
        pool.wait_idle();
        let mut done = done.lock().unwrap().clone();
        done.sort_by_key(|(cell, _)| *cell);
        for k in 0..3u32 {
            assert_eq!(done[(k * 3) as usize], (k * 10, vec![]));
            assert_eq!(done[(k * 3 + 1) as usize], (k * 10 + 1, vec![k * 10]));
            assert_eq!(
                done[(k * 3 + 2) as usize],
                (k * 10 + 2, vec![k * 10, k * 10 + 1])
            );
        }
        assert_eq!(pool.active_streams(), 0);
    }

    #[test]
    fn round_robin_interleaves_streams_on_one_worker() {
        // One worker, two streams: the first cell blocks until both
        // streams are submitted, so from then on the round-robin must
        // alternate between them instead of draining one before
        // touching the other.
        use std::sync::atomic::{AtomicBool, Ordering};
        let both_in = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&both_in);
        let pool: MultiplexPool<(), u32, u32> = MultiplexPool::new(
            1,
            move |&cell, ()| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                cell
            },
            |(), _, _| {},
        );
        let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for k in 1..=2u32 {
            let order = Arc::clone(&order);
            pool.submit(
                (0..3)
                    .map(|i| CellChain { state: (), cells: vec![k * 100 + i] })
                    .collect(),
                move |res| order.lock().unwrap().push(done_of(res) / 100),
            );
        }
        both_in.store(true, Ordering::SeqCst);
        pool.wait_idle();
        let order = order.lock().unwrap().clone();
        assert_eq!(order.len(), 6);
        // Strict alternation after the (possibly pre-gate-picked) first
        // cell: no stream runs twice in a row.
        for pair in order[1..].windows(2) {
            assert_ne!(pair[0], pair[1], "round-robin violated: {order:?}");
        }
    }

    #[test]
    fn streams_submitted_mid_run_get_served() {
        let pool = tracing_pool(2, 5);
        let count = Arc::new(Mutex::new(0usize));
        let c1 = Arc::clone(&count);
        pool.submit(vec![chain(&[1, 2, 3, 4])], move |_| *c1.lock().unwrap() += 1);
        std::thread::sleep(std::time::Duration::from_millis(8));
        let c2 = Arc::clone(&count);
        pool.submit(vec![chain(&[10, 11])], move |_| *c2.lock().unwrap() += 1);
        pool.wait_idle();
        assert_eq!(*count.lock().unwrap(), 6);
    }

    #[test]
    fn drain_finishes_in_flight_and_abandons_the_queue() {
        // One worker, one stream: drain while the first cell is
        // provably in flight (it signals, then waits for the drain
        // flag). The in-flight cell must land (callback and all); the
        // queued remainder must not run.
        use std::sync::atomic::{AtomicBool, Ordering};
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let draining = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&draining);
        let pool: MultiplexPool<(), u32, u32> = MultiplexPool::new(
            1,
            move |&cell, ()| {
                started_tx.send(()).unwrap();
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                cell
            },
            |(), _, _| {},
        );
        let done: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let d = Arc::clone(&done);
        pool.submit(
            vec![CellChain { state: (), cells: vec![7, 8, 9] }],
            move |res| d.lock().unwrap().push(done_of(res)),
        );
        started_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("first cell never started");
        std::thread::scope(|s| {
            let drainer = s.spawn(|| pool.drain());
            // Release the in-flight cell only once the pool has stopped
            // picking, so cell 8 provably had a chance to be skipped.
            while !pool.draining() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            draining.store(true, Ordering::SeqCst);
            drainer.join().unwrap();
        });
        let done = done.lock().unwrap().clone();
        assert_eq!(done, vec![7], "exactly the in-flight cell completes");
    }

    #[test]
    fn submit_after_drain_is_accepted_but_never_runs() {
        let pool = tracing_pool(1, 0);
        pool.drain();
        let ran = Arc::new(Mutex::new(false));
        let r = Arc::clone(&ran);
        pool.submit(vec![chain(&[1])], move |_| *r.lock().unwrap() = true);
        pool.wait_idle();
        assert!(!*ran.lock().unwrap());
    }

    #[test]
    fn empty_submissions_complete_immediately() {
        let pool = tracing_pool(2, 0);
        pool.submit(Vec::new(), |_| {});
        pool.submit(vec![CellChain { state: Vec::new(), cells: Vec::new() }], |_| {});
        pool.wait_idle();
        assert_eq!(pool.active_streams(), 0);
    }

    #[test]
    fn multi_chain_streams_fan_out_within_one_stream() {
        // Two chains of one stream on two workers must overlap: chain A's
        // cell blocks until chain B's cell runs.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let pool: MultiplexPool<(), u32, u32> = MultiplexPool::new(
            2,
            move |&cell, ()| {
                if cell == 0 {
                    rx.lock()
                        .unwrap()
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .expect("chain B never ran while chain A was mid-cell");
                } else if cell == 10 {
                    tx.send(()).unwrap();
                }
                cell
            },
            |(), _, _| {},
        );
        let done: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let d = Arc::clone(&done);
        pool.submit(
            vec![
                CellChain { state: (), cells: vec![0, 1] },
                CellChain { state: (), cells: vec![10, 11] },
            ],
            move |res| d.lock().unwrap().push(done_of(res)),
        );
        pool.wait_idle();
        let mut done = done.lock().unwrap().clone();
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 10, 11]);
    }

    /// A pool whose cells panic on value 13 and otherwise echo
    /// themselves.
    fn poisonable_pool(workers: usize) -> MultiplexPool<(), u32, u32> {
        MultiplexPool::new(
            workers,
            |&cell: &u32, ()| {
                assert!(cell != 13, "cell 13 is poisoned");
                cell
            },
            |(), _, _| {},
        )
    }

    #[test]
    fn panicking_cell_quarantines_its_chain_only() {
        let pool = poisonable_pool(2);
        let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let e = Arc::clone(&events);
        // Chain A hits the poison cell mid-chain; chain B is healthy.
        pool.submit(
            vec![
                CellChain { state: (), cells: vec![1, 13, 2, 3] },
                CellChain { state: (), cells: vec![20, 21] },
            ],
            move |res| {
                let mut ev = e.lock().unwrap();
                match res {
                    CellResult::Done(cell) => ev.push(format!("done:{cell}")),
                    CellResult::Quarantined { cell, reason, abandoned } => {
                        assert!(reason.contains("cell 13 is poisoned"), "{reason}");
                        ev.push(format!("quarantined:{cell}:{abandoned}"))
                    }
                }
            },
        );
        pool.wait_idle();
        let mut events = events.lock().unwrap().clone();
        events.sort();
        // Cell 1 lands, 13 quarantines with 2 and 3 abandoned, chain B
        // runs to completion untouched.
        assert_eq!(
            events,
            vec!["done:1", "done:20", "done:21", "quarantined:13:2"]
        );
        assert_eq!(pool.active_streams(), 0, "quarantined stream is gone");
    }

    #[test]
    fn pool_survives_a_panic_and_serves_later_streams() {
        // One worker: the panic and the follow-up stream share the one
        // thread, so the follow-up completing proves the worker
        // survived the unwind.
        let pool = poisonable_pool(1);
        let quarantined = Arc::new(Mutex::new(false));
        let q = Arc::clone(&quarantined);
        pool.submit(vec![CellChain { state: (), cells: vec![13] }], move |res| {
            if matches!(res, CellResult::Quarantined { .. }) {
                *q.lock().unwrap() = true;
            }
        });
        pool.wait_idle();
        assert!(*quarantined.lock().unwrap());
        let done: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let d = Arc::clone(&done);
        pool.submit(
            vec![CellChain { state: (), cells: vec![5, 6] }],
            move |res| d.lock().unwrap().push(done_of(res)),
        );
        pool.wait_idle();
        assert_eq!(done.lock().unwrap().clone(), vec![5, 6]);
        pool.drain();
    }
}
