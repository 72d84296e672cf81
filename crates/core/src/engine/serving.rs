//! The serving layer: persistent worker pool, result caches, admission
//! control, deadlines, and the public [`QueryEngine`] API.
//!
//! Everything here drives real OS threads and wall-clock timers, so the
//! whole module is compiled out under `cfg(loom)`; the synchronization
//! skeleton it is built on ([`JobQueue`], [`Metrics`]) lives in sibling
//! modules and *is* model-checked.
//!
//! # Fault tolerance
//!
//! The engine can say "no" and "slower" instead of hanging or growing
//! without bound (see DESIGN.md §11):
//!
//! * **Admission control** — the job queue is bounded
//!   ([`EngineConfig::queue_capacity`]); overload either sheds load with
//!   [`Error::QueueFull`] ([`OverloadPolicy::Reject`]) or backpressures
//!   the caller up to its deadline budget ([`OverloadPolicy::Block`]).
//! * **Deadlines** — a per-query budget ([`QueryOptions::deadline`], or
//!   the engine-wide [`EngineConfig::default_deadline`]) is enforced on
//!   the caller's wait *and* at dequeue: a worker popping a job whose
//!   deadline already passed shed it unanswered-by-computation, replying
//!   [`Error::Timeout`] instead of wasting pool time.
//! * **Cancellation** — every dispatched job carries a [`CancelToken`];
//!   a caller that gives up (or times out) cancels it so abandoned work
//!   stops consuming workers.
//! * **Degradation** — with a [`FallbackSolver`] attached
//!   ([`QueryEngine::with_fallback`]), [`QueryEngine::serve`] turns
//!   timeouts, overload rejections, and worker panics into a
//!   bounded-iteration power-method answer tagged with a
//!   [`DegradedReason`] and residual, instead of an error.
//!
//! # Blocked coalescing
//!
//! Under load, each worker coalesces up to [`EngineConfig::block_width`]
//! queued jobs into one blocked multi-RHS solve
//! ([`Bear::query_block_into`]): after a blocking pop it drains whatever
//! else is already queued, without waiting, so a lone query never idles
//! for company and a full queue is answered `block_width` seeds at a
//! time. Blocked answers are bit-identical to per-seed answers — the
//! block kernels replicate the scalar accumulation order column by
//! column — so coalescing is purely a throughput/latency trade-off (see
//! DESIGN.md §13). Dead jobs (expired deadline, cancelled caller) are
//! still shed individually before the batch is formed, and a panic
//! poisons only the batch that hit it. [`Metrics`] records the realized
//! block-width histogram and per-query amortized latency.

use super::metrics::Metrics;
use super::queue::JobQueue;
use super::{MetricsSnapshot, QueryWorkspace};
use crate::fallback::{DegradedReason, FallbackSolver};
use crate::precompute::Bear;
use crate::topk::{top_k_excluding_seed, ScoredNode};
use crate::topk_pruned::TopKPruneOptions;
use bear_sparse::{DenseBlock, Error, Result};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
// Locks go through the `crate::sync` shim (L4): under `cfg(not(loom))` —
// the only configuration this module compiles in — it re-exports
// `std::sync::Mutex` unchanged, and keeping the import shim-shaped means
// any future move of this code into the loom-modeled core needs no
// rewrite.
use crate::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Bounded LRU cache
// ---------------------------------------------------------------------------

/// Minimal bounded LRU: a `HashMap` with a monotonically increasing use
/// stamp per entry. Eviction scans for the stale entry — O(capacity), which
/// is fine for the small bounded capacities the engine uses and keeps the
/// implementation dependency-free.
struct LruCache<K, V> {
    capacity: usize,
    stamp: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    fn new(capacity: usize) -> Self {
        LruCache { capacity, stamp: 0, map: HashMap::with_capacity(capacity) }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(s, v)| {
            *s = stamp;
            v.clone()
        })
    }

    fn insert(&mut self, key: K, value: V) {
        // A zero-capacity cache stores nothing. Without this guard the
        // eviction scan below finds no victim on the empty map and the
        // insert proceeds anyway — growing the map without bound.
        if self.capacity == 0 {
            return;
        }
        self.stamp += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.stamp, value));
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// What [`QueryEngine`] does when a query arrives and the job queue is
/// already at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Shed load: fail the query immediately with [`Error::QueueFull`]
    /// (or degrade it, when a fallback is attached).
    #[default]
    Reject,
    /// Backpressure: block the submitting caller until space frees up or
    /// its deadline budget runs out ([`Error::Timeout`]).
    Block,
}

/// How [`QueryEngine::query_top_k`] computes its answer. Both strategies
/// return bit-identical rankings with exact scores; they differ only in
/// how much of the score vector they materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopKStrategy {
    /// Solve the full n-vector and select — [`Bear::query_top_k`].
    Full,
    /// Bound-and-prune exact path ([`Bear::query_top_k_pruned_in`]):
    /// resolve only the spoke blocks whose upper bound could reach the
    /// top k, falling back to the full solve when certification fails.
    #[default]
    Pruned,
}

/// Configuration for [`QueryEngine`]. Validated at engine construction
/// ([`EngineConfig::validate`]); build one with [`EngineConfig::builder`]
/// to validate eagerly.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads in the persistent pool. Must be ≥ 1; rejected with
    /// [`Error::InvalidConfig`] otherwise (no silent clamping).
    pub threads: usize,
    /// Capacity of each result cache (full-score and top-k); `0` disables
    /// caching entirely.
    pub cache_capacity: usize,
    /// Admission-control bound on queued jobs. Must be ≥ 1. Queue memory
    /// is proportional to this bound no matter how overloaded the engine
    /// gets.
    pub queue_capacity: usize,
    /// What to do when the queue is full; see [`OverloadPolicy`].
    pub overload: OverloadPolicy,
    /// Deadline budget applied to queries that do not carry their own
    /// ([`QueryOptions::deadline`]). `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Maximum queued jobs a worker coalesces into one blocked
    /// multi-RHS solve ([`Bear::query_block_into`]). `1` disables
    /// coalescing; must be ≥ 1 ([`Error::InvalidConfig`] otherwise) and
    /// is capped at [`EngineConfig::queue_capacity`] — more jobs than the
    /// queue can hold can never be waiting. Blocked answers are
    /// bit-identical to per-seed ones, so this is purely a
    /// throughput/latency trade-off.
    pub block_width: usize,
    /// How top-k queries are computed; see [`TopKStrategy`].
    pub topk_strategy: TopKStrategy,
    /// Resident-set cap (bytes) applied to the index's block pager at
    /// engine construction, when the [`Bear`] was loaded from a v3
    /// (out-of-core) index. `None` leaves the budget from load time
    /// untouched; `Some(bytes)` re-caps the pager (shrinking evicts
    /// immediately). Ignored — not an error — for fully resident
    /// indexes, so one config serves both layouts.
    pub spoke_residency_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_capacity: 1024,
            queue_capacity: 1024,
            overload: OverloadPolicy::Reject,
            default_deadline: None,
            block_width: 8,
            topk_strategy: TopKStrategy::default(),
            spoke_residency_bytes: None,
        }
    }
}

impl EngineConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { config: EngineConfig::default() }
    }

    /// Rejects configurations the engine cannot honor.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(Error::InvalidConfig {
                param: "threads",
                reason: "worker pool needs at least one thread".into(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(Error::InvalidConfig {
                param: "queue_capacity",
                reason: "a queue that admits nothing deadlocks every query".into(),
            });
        }
        if self.block_width == 0 {
            return Err(Error::InvalidConfig {
                param: "block_width",
                reason: "a zero-width block answers nothing; use 1 to disable coalescing".into(),
            });
        }
        Ok(())
    }

    /// The coalescing width the engine actually uses: `block_width`
    /// clamped to `[1, queue_capacity]` (a worker can never drain more
    /// jobs than the queue admits).
    pub fn effective_block_width(&self) -> usize {
        self.block_width.clamp(1, self.queue_capacity.max(1))
    }
}

/// Builder for [`EngineConfig`]; [`EngineConfigBuilder::build`] validates.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads in the persistent pool (must be ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Result-cache capacity (`0` disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Admission-control bound on queued jobs (must be ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Overload policy when the queue is full.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.config.overload = policy;
        self
    }

    /// Default per-query deadline budget.
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.default_deadline = deadline;
        self
    }

    /// Maximum jobs a worker coalesces into one blocked solve (must be
    /// ≥ 1; `1` disables coalescing).
    pub fn block_width(mut self, width: usize) -> Self {
        self.config.block_width = width;
        self
    }

    /// How top-k queries are computed; see [`TopKStrategy`].
    pub fn topk_strategy(mut self, strategy: TopKStrategy) -> Self {
        self.config.topk_strategy = strategy;
        self
    }

    /// Resident-set cap for a paged (v3) index; ignored for resident
    /// indexes. See [`EngineConfig::spoke_residency_bytes`].
    pub fn spoke_residency_bytes(mut self, bytes: Option<u64>) -> Self {
        self.config.spoke_residency_bytes = bytes;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

// ---------------------------------------------------------------------------
// Per-query options, cancellation, degradation tags
// ---------------------------------------------------------------------------

/// Cooperative cancellation handle shared between a caller and its
/// dispatched jobs. Cloning shares the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every job holding a clone observes it at
    /// dequeue and is shed instead of computed.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Per-call options for [`QueryEngine::serve`] / [`QueryEngine::serve_batch`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Deadline budget for this call; `None` falls back to
    /// [`EngineConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Cancellation token observed by the dispatched jobs. The engine
    /// creates an internal one when absent, so abandoning a timed-out
    /// query always stops its queued work.
    pub cancel: Option<CancelToken>,
}

/// How and why an answer was produced by the degraded path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedInfo {
    /// Which fault triggered the fallback.
    pub reason: DegradedReason,
    /// L1 change of the fallback's final power iteration.
    pub residual: f64,
    /// Upper bound on the L1 distance to the exact answer.
    pub error_bound: f64,
    /// Power iterations the fallback performed.
    pub iterations: usize,
}

/// One served answer: exact (from the BEAR index) when `degraded` is
/// `None`, otherwise a bounded-iteration approximation tagged with why.
#[derive(Debug, Clone)]
pub struct Served {
    /// RWR scores of every node w.r.t. the queried seed.
    pub scores: Arc<Vec<f64>>,
    /// Present iff the answer came from the degraded fallback path.
    pub degraded: Option<DegradedInfo>,
}

impl Served {
    /// Whether this is the exact BEAR answer.
    pub fn is_exact(&self) -> bool {
        self.degraded.is_none()
    }
}

/// One served top-k answer: exact ranks and scores when `degraded` is
/// `None` (whatever the [`TopKStrategy`]), otherwise the selection over
/// a degraded full vector, tagged with why.
#[derive(Debug, Clone)]
pub struct TopKServed {
    /// The best-scoring non-seed nodes, descending (ties by node id).
    pub nodes: Arc<Vec<ScoredNode>>,
    /// Present iff the answer came from the degraded fallback path.
    pub degraded: Option<DegradedInfo>,
}

impl TopKServed {
    /// Whether this is the exact BEAR answer.
    pub fn is_exact(&self) -> bool {
        self.degraded.is_none()
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// What a pool job computes.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    /// The full n-vector of RWR scores.
    Full,
    /// The top `k` non-seed nodes (exact; strategy chosen per engine).
    TopK { k: usize },
}

/// What a pool job replies with; shape matches the [`JobKind`].
enum Answer {
    Full(Arc<Vec<f64>>),
    TopK(Arc<Vec<ScoredNode>>),
}

impl Answer {
    /// The full-vector payload; a shape mismatch is an internal bug
    /// surfaced as a typed error, never a panic on the serving path.
    fn into_full(self) -> Result<Arc<Vec<f64>>> {
        match self {
            Answer::Full(scores) => Ok(scores),
            Answer::TopK(_) => {
                Err(Error::InvalidStructure("internal: top-k reply to a full query".into()))
            }
        }
    }

    /// The top-k payload; same typed-error contract as [`Answer::into_full`].
    fn into_topk(self) -> Result<Arc<Vec<ScoredNode>>> {
        match self {
            Answer::TopK(nodes) => Ok(nodes),
            Answer::Full(_) => {
                Err(Error::InvalidStructure("internal: full reply to a top-k query".into()))
            }
        }
    }
}

/// One unit of work for the pool: answer `seed`, reply with `tag` so the
/// submitter can reassemble batch order.
struct Job {
    seed: usize,
    tag: usize,
    kind: JobKind,
    reply: Sender<(usize, Result<Answer>)>,
    /// Deadline after which the job is shed at dequeue.
    deadline: Option<Instant>,
    /// Original budget, for [`Error::Timeout`] reporting.
    budget: Option<Duration>,
    /// Cooperative cancellation; checked at dequeue.
    cancel: Option<CancelToken>,
}

/// Persistent concurrent query server over a preprocessed [`Bear`] index.
///
/// Workers are spawned once at construction and fed over a bounded job
/// queue; each owns a [`QueryWorkspace`], so steady-state queries
/// allocate only their result vector. Dropping the engine shuts the pool
/// down cleanly.
///
/// ```
/// use std::sync::Arc;
/// use bear_core::{Bear, BearConfig};
/// use bear_core::engine::{EngineConfig, QueryEngine};
/// use bear_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]).unwrap();
/// let bear = Arc::new(Bear::new(&g, &BearConfig::default()).unwrap());
/// let engine = QueryEngine::new(Arc::clone(&bear), EngineConfig::default()).unwrap();
/// let scores = engine.query(0).unwrap();
/// assert_eq!(*scores, bear.query(0).unwrap()); // bit-identical
/// ```
pub struct QueryEngine {
    bear: Arc<Bear>,
    queue: Arc<JobQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Spare scratch for caller-assist: the thread submitting a batch
    /// borrows this to drain the job queue itself while waiting.
    caller_scratch: Mutex<JobScratch>,
    full_cache: Option<Mutex<FullScoreCache>>,
    topk_cache: Option<Mutex<TopKCache>>,
    metrics: Arc<Metrics>,
    fallback: Option<Arc<FallbackSolver>>,
    overload: OverloadPolicy,
    default_deadline: Option<Duration>,
    topk_strategy: TopKStrategy,
}

/// Full score vectors keyed by seed.
type FullScoreCache = LruCache<usize, Arc<Vec<f64>>>;
/// Top-k answers keyed by seed, holding the *largest-k* entry computed
/// so far: any request for `k' ≤ len` is served by prefix truncation
/// (the selection order is a strict total order, so the k'-prefix of a
/// k-answer *is* the k'-answer). Keying by `(seed, k)` — the old scheme
/// — made a `(seed, 10)` entry useless for a later `(seed, 5)` request.
type TopKCache = LruCache<usize, Arc<Vec<ScoredNode>>>;

impl QueryEngine {
    /// Validates `config`, spawns the worker pool, and returns a
    /// ready-to-serve engine.
    pub fn new(bear: Arc<Bear>, config: EngineConfig) -> Result<Self> {
        Self::build(bear, config, None)
    }

    /// Like [`QueryEngine::new`], with a degraded-mode solver attached:
    /// [`QueryEngine::serve`] answers timeouts, overload rejections, and
    /// worker panics from `fallback` instead of failing.
    pub fn with_fallback(
        bear: Arc<Bear>,
        config: EngineConfig,
        fallback: Arc<FallbackSolver>,
    ) -> Result<Self> {
        if fallback.num_nodes() != bear.num_nodes() {
            return Err(Error::InvalidConfig {
                param: "fallback",
                reason: format!(
                    "fallback solver serves {} nodes but the index has {}",
                    fallback.num_nodes(),
                    bear.num_nodes()
                ),
            });
        }
        Self::build(bear, config, Some(fallback))
    }

    fn build(
        bear: Arc<Bear>,
        config: EngineConfig,
        fallback: Option<Arc<FallbackSolver>>,
    ) -> Result<Self> {
        config.validate()?;
        if let Some(bytes) = config.spoke_residency_bytes {
            if let Some(pager) = bear.spokes.pager() {
                let cap = usize::try_from(bytes).unwrap_or(usize::MAX);
                pager.set_budget(Some(cap))?;
            }
        }
        let queue = Arc::new(JobQueue::bounded(config.queue_capacity));
        let metrics = Arc::new(Metrics::new());
        let block_width = config.effective_block_width();
        let topk_strategy = config.topk_strategy;
        let mut workers = Vec::with_capacity(config.threads);
        for i in 0..config.threads {
            let bear = Arc::clone(&bear);
            let worker_queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let spawned =
                std::thread::Builder::new().name(format!("bear-query-{i}")).spawn(move || {
                    worker_loop(&bear, &worker_queue, &metrics, block_width, topk_strategy)
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Typed error instead of a panic: close the queue so
                    // the workers already spawned exit their pop loops,
                    // join them, and report which spawn failed.
                    queue.close();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(Error::InvalidConfig {
                        param: "threads",
                        reason: format!("failed to spawn query worker {i}: {e}"),
                    });
                }
            }
        }
        let caches_on = config.cache_capacity > 0;
        Ok(QueryEngine {
            caller_scratch: Mutex::new(JobScratch::new(&bear, 1)),
            bear,
            queue,
            workers,
            full_cache: caches_on.then(|| Mutex::new(LruCache::new(config.cache_capacity))),
            topk_cache: caches_on.then(|| Mutex::new(LruCache::new(config.cache_capacity))),
            metrics,
            fallback,
            overload: config.overload,
            default_deadline: config.default_deadline,
            topk_strategy,
        })
    }

    /// The index this engine serves.
    pub fn bear(&self) -> &Bear {
        &self.bear
    }

    /// Point-in-time serving metrics. When the index is paged (v3),
    /// block-pager counters are merged into the snapshot here; the
    /// [`Metrics`] sink itself stays pager-unaware.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(pager) = self.bear.spokes.pager() {
            let stats = pager.stats();
            snap.pager_hits = stats.hits;
            snap.pager_misses = stats.misses;
            snap.pager_evictions = stats.evictions;
            snap.pager_resident_bytes = stats.resident_bytes;
            snap.pager_resident_blocks = stats.resident_blocks;
        }
        snap
    }

    /// Entries currently held in the full-score cache.
    pub fn cached_results(&self) -> usize {
        self.full_cache.as_ref().map_or(0, |c| c.lock().map_or(0, |c| c.len()))
    }

    /// Jobs currently waiting in the (bounded) queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn check_seed(&self, seed: usize) -> Result<()> {
        let n = self.bear.num_nodes();
        if seed >= n {
            return Err(Error::IndexOutOfBounds { index: seed, bound: n });
        }
        Ok(())
    }

    /// Admission without metrics accounting: fail-fast deadline check,
    /// then push under the configured overload policy.
    ///
    /// A job whose deadline has already passed (including a zero budget)
    /// fails fast with [`Error::Timeout`] *before* it is enqueued: letting
    /// it through would occupy bounded queue capacity until the
    /// dequeue-side shed — capacity that still-viable queries could use.
    fn try_admit(&self, job: Job, deadline: Option<Instant>) -> Result<()> {
        crate::fail_point!("queue::push");
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Error::Timeout { budget: job.budget.unwrap_or_default() });
        }
        match self.overload {
            OverloadPolicy::Reject => self.queue.push(job),
            OverloadPolicy::Block => {
                let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                self.queue.push_blocking(job, remaining)
            }
        }
    }

    /// Admits one job to the pool under the configured overload policy,
    /// accounting rejections and admission timeouts (see
    /// [`QueryEngine::try_admit`]).
    fn admit(&self, job: Job, deadline: Option<Instant>) -> Result<()> {
        self.try_admit(job, deadline).inspect_err(|e| match e {
            Error::QueueFull { .. } => self.metrics.record_queue_rejection(),
            Error::Timeout { .. } => self.metrics.record_timeout(),
            _ => {}
        })
    }

    /// Batch-dispatch admission: like [`QueryEngine::admit`], except that
    /// when the caller's *own* dispatch loop has filled the queue
    /// ([`OverloadPolicy::Reject`], no deadline), the submitting thread
    /// assists — draining one queued job inline with the spare workspace —
    /// and retries. A batch larger than the queue therefore makes progress
    /// in bounded memory instead of being shed on its own backlog (each
    /// retry either admits the job or answers one queued job, so the loop
    /// terminates after at most the batch's own work). External overload
    /// while the spare workspace is busy still sheds with
    /// [`Error::QueueFull`], and deadline-carrying batches keep strict
    /// admission (inline work cannot be abandoned mid-compute, so
    /// assisting would run the caller past its budget).
    fn admit_assisting(&self, make_job: &dyn Fn() -> Job, deadline: Option<Instant>) -> Result<()> {
        loop {
            match self.try_admit(make_job(), deadline) {
                Err(Error::QueueFull { capacity }) if deadline.is_none() => {
                    let Ok(mut scratch) = self.caller_scratch.try_lock() else {
                        self.metrics.record_queue_rejection();
                        return Err(Error::QueueFull { capacity });
                    };
                    // Nothing popped: a worker drained the queue between
                    // the rejection and our pop; the retry will find space.
                    if !self.assist(&mut scratch) {
                        std::thread::yield_now();
                    }
                }
                Err(e) => {
                    match &e {
                        Error::QueueFull { .. } => self.metrics.record_queue_rejection(),
                        Error::Timeout { .. } => self.metrics.record_timeout(),
                        _ => {}
                    }
                    return Err(e);
                }
                Ok(()) => return Ok(()),
            }
        }
    }

    /// Caller-assist: answers one queued job on the calling thread with
    /// the spare scratch. Returns whether there was a job to answer.
    fn assist(&self, scratch: &mut JobScratch) -> bool {
        let Some(job) = self.queue.try_pop() else { return false };
        scratch.jobs.push(job);
        run_jobs(&self.bear, scratch, &self.metrics, self.topk_strategy);
        true
    }

    /// Computes (or fetches) the full score vector for `seed`, without
    /// touching the query/hit metrics. Returns `(scores, was_cache_hit)`.
    ///
    /// `deadline`/`budget` bound the wait; `cancel` (or an internal
    /// token) stops the queued job if the caller gives up.
    fn fetch_full(
        &self,
        seed: usize,
        deadline: Option<Instant>,
        budget: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Arc<Vec<f64>>, bool)> {
        if let Some(cache) = &self.full_cache {
            if let Some(hit) = cache.lock().ok().and_then(|mut c| c.get(&seed)) {
                return Ok((hit, true));
            }
        }
        // The token lets a timed-out caller stop the job it abandoned;
        // create one internally when the caller didn't supply any.
        let token = cancel.cloned().unwrap_or_default();
        let (reply_tx, reply_rx) = channel();
        self.admit(
            Job {
                seed,
                tag: 0,
                kind: JobKind::Full,
                reply: reply_tx,
                deadline,
                budget,
                cancel: Some(token.clone()),
            },
            deadline,
        )?;
        // Caller-assist: if the spare workspace is free, answer a pending
        // job (usually the one just pushed) on this thread instead of
        // round-tripping through a worker. Skipped when a deadline is
        // set — inline work cannot be abandoned mid-compute, so it would
        // silently run the caller past its own budget.
        if deadline.is_none() {
            if let Ok(mut scratch) = self.caller_scratch.try_lock() {
                self.assist(&mut scratch);
            }
        }
        let scores = self.wait_reply(&reply_rx, deadline, budget, &token)?.into_full()?;
        if let Some(cache) = &self.full_cache {
            if let Ok(mut c) = cache.lock() {
                c.insert(seed, Arc::clone(&scores));
            }
        }
        Ok((scores, false))
    }

    /// Computes (or fetches) the top `effective_k` nodes for `seed`,
    /// without touching the query/hit metrics. Returns
    /// `(nodes, was_cache_hit)`. Same admission, deadline, caller-assist,
    /// and cancellation discipline as [`QueryEngine::fetch_full`] — the
    /// old top-k path bypassed all of it, so an `X-Deadline-Ms` on
    /// `/v1/topk` was silently ignored and could never 504 or degrade.
    ///
    /// The cache stores the largest-k answer per seed; a request for a
    /// smaller k is served by prefix truncation, and a longer fresh
    /// answer replaces the shorter cached one.
    fn fetch_topk(
        &self,
        seed: usize,
        effective_k: usize,
        deadline: Option<Instant>,
        budget: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Arc<Vec<ScoredNode>>, bool)> {
        if let Some(cache) = &self.topk_cache {
            if let Some(hit) = cache.lock().ok().and_then(|mut c| c.get(&seed)) {
                if hit.len() == effective_k {
                    return Ok((hit, true));
                }
                if hit.len() > effective_k {
                    let prefix: Vec<ScoredNode> = hit.iter().take(effective_k).copied().collect();
                    return Ok((Arc::new(prefix), true));
                }
            }
        }
        let token = cancel.cloned().unwrap_or_default();
        let (reply_tx, reply_rx) = channel();
        self.admit(
            Job {
                seed,
                tag: 0,
                kind: JobKind::TopK { k: effective_k },
                reply: reply_tx,
                deadline,
                budget,
                cancel: Some(token.clone()),
            },
            deadline,
        )?;
        if deadline.is_none() {
            if let Ok(mut scratch) = self.caller_scratch.try_lock() {
                self.assist(&mut scratch);
            }
        }
        let nodes = self.wait_reply(&reply_rx, deadline, budget, &token)?.into_topk()?;
        if let Some(cache) = &self.topk_cache {
            if let Ok(mut c) = cache.lock() {
                // Keep whichever answer covers more: replacing a longer
                // entry with a shorter one would throw away prefix hits.
                let longer_cached = c.get(&seed).is_some_and(|cur| cur.len() >= nodes.len());
                if !longer_cached {
                    c.insert(seed, Arc::clone(&nodes));
                }
            }
        }
        Ok((nodes, false))
    }

    /// Waits for one reply, bounded by `deadline`. On timeout the job is
    /// cancelled (so it stops consuming the pool) and [`Error::Timeout`]
    /// is returned.
    fn wait_reply(
        &self,
        rx: &Receiver<(usize, Result<Answer>)>,
        deadline: Option<Instant>,
        budget: Option<Duration>,
        token: &CancelToken,
    ) -> Result<Answer> {
        let reply = match deadline {
            None => rx.recv().map_err(|_| Error::PoolShutDown)?,
            Some(at) => {
                let remaining = at.saturating_duration_since(Instant::now());
                match rx.recv_timeout(remaining) {
                    Ok(reply) => reply,
                    Err(RecvTimeoutError::Disconnected) => return Err(Error::PoolShutDown),
                    Err(RecvTimeoutError::Timeout) => {
                        token.cancel();
                        self.metrics.record_timeout();
                        return Err(Error::Timeout { budget: budget.unwrap_or_default() });
                    }
                }
            }
        };
        reply.1
    }

    /// RWR scores of every node w.r.t. `seed` — bit-identical to
    /// [`Bear::query`], shared via `Arc` so cache hits allocate nothing.
    ///
    /// Always exact: deadline and overload faults surface as typed
    /// errors. Use [`QueryEngine::serve`] for the degrading path.
    pub fn query(&self, seed: usize) -> Result<Arc<Vec<f64>>> {
        let start = Instant::now();
        self.check_seed(seed)?;
        let budget = self.default_deadline;
        let deadline = budget.map(|b| start + b);
        let (scores, hit) = self.fetch_full(seed, deadline, budget, None)?;
        self.metrics.record(hit, start.elapsed());
        Ok(scores)
    }

    /// The `k` most relevant nodes w.r.t. `seed` (seed excluded) —
    /// ranks and scores identical to [`Bear::query_top_k`], computed by
    /// the configured [`TopKStrategy`] on the worker pool.
    ///
    /// Runs through the same admission, deadline, and degradation
    /// ladder as [`QueryEngine::serve`]: an expired deadline fails fast
    /// with [`Error::Timeout`], and with a fallback attached, faults
    /// produce a degraded selection tagged in [`TopKServed::degraded`]
    /// (never cached). `k = 0` returns an empty answer; HTTP callers
    /// reject it earlier with `400` (see the serve crate).
    pub fn query_top_k(&self, seed: usize, k: usize, opts: &QueryOptions) -> Result<TopKServed> {
        let start = Instant::now();
        self.check_seed(seed)?;
        let effective_k = k.min(self.bear.num_nodes().saturating_sub(1));
        if effective_k == 0 {
            return Ok(TopKServed { nodes: Arc::new(Vec::new()), degraded: None });
        }
        let budget = opts.deadline.or(self.default_deadline);
        let deadline = budget.map(|b| start + b);
        match self.fetch_topk(seed, effective_k, deadline, budget, opts.cancel.as_ref()) {
            Ok((nodes, hit)) => {
                self.metrics.record(hit, start.elapsed());
                Ok(TopKServed { nodes, degraded: None })
            }
            Err(e) => match (degraded_reason(&e), self.fallback.as_deref()) {
                (Some(reason), Some(fallback)) => {
                    let served = self.degrade(fallback, seed, reason)?;
                    self.metrics.record(false, start.elapsed());
                    Ok(TopKServed {
                        nodes: Arc::new(top_k_excluding_seed(&served.scores, seed, effective_k)),
                        degraded: served.degraded,
                    })
                }
                _ => Err(e),
            },
        }
    }

    /// Answers `seed` through the full fault-tolerance ladder: exact
    /// answer within the deadline budget when possible, otherwise — with
    /// a fallback attached — a bounded-iteration degraded answer tagged
    /// with the triggering fault. Without a fallback this behaves like
    /// [`QueryEngine::query`] plus per-call options.
    pub fn serve(&self, seed: usize, opts: &QueryOptions) -> Result<Served> {
        let start = Instant::now();
        self.check_seed(seed)?;
        let budget = opts.deadline.or(self.default_deadline);
        let deadline = budget.map(|b| start + b);
        match self.fetch_full(seed, deadline, budget, opts.cancel.as_ref()) {
            Ok((scores, hit)) => {
                self.metrics.record(hit, start.elapsed());
                Ok(Served { scores, degraded: None })
            }
            Err(e) => match (degraded_reason(&e), self.fallback.as_deref()) {
                (Some(reason), Some(fallback)) => {
                    let served = self.degrade(fallback, seed, reason)?;
                    self.metrics.record(false, start.elapsed());
                    Ok(served)
                }
                _ => Err(e),
            },
        }
    }

    /// [`QueryEngine::serve`] over many seeds, in seed order. Seeds are
    /// validated upfront; the deadline budget covers the whole batch and
    /// expired or abandoned jobs are shed at dequeue, so one slow seed
    /// degrades (or fails) without dragging the others past the budget.
    pub fn serve_batch(&self, seeds: &[usize], opts: &QueryOptions) -> Result<Vec<Served>> {
        for &seed in seeds {
            self.check_seed(seed)?;
        }
        let budget = opts.deadline.or(self.default_deadline);
        let deadline = budget.map(|b| Instant::now() + b);
        let token = opts.cancel.clone().unwrap_or_default();
        let mut out = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let start = Instant::now();
            let result = self.fetch_full(seed, deadline, budget, Some(&token));
            match result {
                Ok((scores, hit)) => {
                    self.metrics.record(hit, start.elapsed());
                    out.push(Served { scores, degraded: None });
                }
                Err(e) => match (degraded_reason(&e), self.fallback.as_deref()) {
                    (Some(reason), Some(fallback)) => {
                        let served = self.degrade(fallback, seed, reason)?;
                        self.metrics.record(false, start.elapsed());
                        out.push(served);
                    }
                    _ => return Err(e),
                },
            }
        }
        Ok(out)
    }

    /// Answers one seed from `fallback`, tagged with `reason`. Callers
    /// hand the solver in (matched out of `self.fallback`), so "degrade
    /// without a fallback" is unrepresentable rather than a panic.
    fn degrade(
        &self,
        fallback: &FallbackSolver,
        seed: usize,
        reason: DegradedReason,
    ) -> Result<Served> {
        let answer = fallback.solve(seed)?;
        self.metrics.record_degraded();
        let info = DegradedInfo {
            reason,
            residual: answer.residual,
            error_bound: answer.error_bound(),
            iterations: answer.iterations,
        };
        Ok(Served { scores: Arc::new(answer.scores), degraded: Some(info) })
    }

    /// Answers many single-seed queries on the persistent pool. Results
    /// are in seed order and bit-identical to sequential [`Bear::query`].
    ///
    /// All seeds are validated before any work is dispatched, so an
    /// invalid seed fails fast and names the offender; a worker panic
    /// surfaces as [`Error::WorkerPanicked`] on the affected seed instead
    /// of aborting the process. Always exact — see
    /// [`QueryEngine::serve_batch`] for the degrading variant.
    pub fn query_batch(&self, seeds: &[usize]) -> Result<Vec<Arc<Vec<f64>>>> {
        for &seed in seeds {
            self.check_seed(seed)?;
        }
        // An empty batch has an obvious answer; don't touch the pool (or
        // its metrics) to produce it.
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let budget = self.default_deadline;
        let deadline = budget.map(|b| Instant::now() + b);
        let token = CancelToken::new();
        let mut slots: Vec<Option<Arc<Vec<f64>>>> = vec![None; seeds.len()];
        // Dispatch timestamps, so each computed result's latency is
        // attributed from its own dispatch — not from the start of the
        // whole loop, which inflated cache-hit latencies before.
        let mut dispatched: Vec<Option<Instant>> = vec![None; seeds.len()];
        let (reply_tx, reply_rx) = channel();
        let mut outstanding = 0usize;
        for (tag, &seed) in seeds.iter().enumerate() {
            let probe_start = Instant::now();
            let cached = self
                .full_cache
                .as_ref()
                .and_then(|cache| cache.lock().ok().and_then(|mut c| c.get(&seed)));
            match cached {
                Some(hit) => {
                    slots[tag] = Some(hit);
                    self.metrics.record(true, probe_start.elapsed());
                }
                None => {
                    dispatched[tag] = Some(probe_start);
                    // Assisting admission: a batch bigger than the queue
                    // drains its own backlog instead of tripping QueueFull
                    // on it (self-inflicted overload is not overload).
                    let make_job = || Job {
                        seed,
                        tag,
                        kind: JobKind::Full,
                        reply: reply_tx.clone(),
                        deadline,
                        budget,
                        cancel: Some(token.clone()),
                    };
                    self.admit_assisting(&make_job, deadline)?;
                    outstanding += 1;
                }
            }
        }
        drop(reply_tx);
        // Caller-assist: while replies are pending, this thread drains the
        // job queue with the engine's spare workspace instead of blocking.
        // On a small pool (or single core) the whole batch runs inline
        // with no thread ping-pong; on a big pool it adds one worker.
        // Skipped under a deadline: inline work cannot be abandoned
        // mid-compute, so it would run the caller past its own budget.
        let mut caller_scratch =
            if deadline.is_none() { self.caller_scratch.try_lock().ok() } else { None };
        let mut collected = 0usize;
        let finish = |engine: &Self,
                      slots: &mut [Option<Arc<Vec<f64>>>],
                      dispatched: &[Option<Instant>],
                      seeds: &[usize],
                      tag: usize,
                      result: Result<Answer>|
         -> Result<()> {
            let scores = result.and_then(Answer::into_full).inspect_err(|_| token.cancel())?;
            if let Some(cache) = &engine.full_cache {
                if let Ok(mut c) = cache.lock() {
                    c.insert(seeds[tag], Arc::clone(&scores));
                }
            }
            slots[tag] = Some(scores);
            let elapsed = dispatched[tag].map_or(Duration::ZERO, |d| d.elapsed());
            engine.metrics.record(false, elapsed);
            Ok(())
        };
        while collected < outstanding {
            match reply_rx.try_recv() {
                Ok((tag, result)) => {
                    finish(self, &mut slots, &dispatched, seeds, tag, result)?;
                    collected += 1;
                    continue;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => return Err(Error::PoolShutDown),
            }
            if let Some(scratch) = caller_scratch.as_deref_mut() {
                if self.assist(scratch) {
                    continue;
                }
            }
            // Nothing left to steal: block until a worker finishes (the
            // deadline is enforced per job at dequeue, so a bounded wait
            // here would only duplicate that check).
            match deadline {
                None => {
                    let (tag, result) = reply_rx.recv().map_err(|_| Error::PoolShutDown)?;
                    finish(self, &mut slots, &dispatched, seeds, tag, result)?;
                    collected += 1;
                }
                Some(at) => {
                    let remaining = at.saturating_duration_since(Instant::now());
                    match reply_rx.recv_timeout(remaining) {
                        Ok((tag, result)) => {
                            finish(self, &mut slots, &dispatched, seeds, tag, result)?;
                            collected += 1;
                        }
                        Err(RecvTimeoutError::Disconnected) => return Err(Error::PoolShutDown),
                        Err(RecvTimeoutError::Timeout) => {
                            token.cancel();
                            self.metrics.record_timeout();
                            return Err(Error::Timeout { budget: budget.unwrap_or_default() });
                        }
                    }
                }
            }
        }
        // Every slot was filled either from cache at dispatch or by a
        // collected reply; an empty one means the tag bookkeeping above
        // is broken, which surfaces as a typed error, not a panic.
        slots
            .into_iter()
            .zip(seeds)
            .map(|(slot, seed)| {
                slot.ok_or_else(|| {
                    Error::InvalidStructure(format!("internal: no reply for batch seed {seed}"))
                })
            })
            .collect()
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("nodes", &self.bear.num_nodes())
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.queue.capacity())
            .field("overload", &self.overload)
            .field("default_deadline", &self.default_deadline)
            .field("has_fallback", &self.fallback.is_some())
            .finish_non_exhaustive()
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        // Closing the queue ends every worker's pop loop.
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Which degraded-mode reason (if any) corresponds to a serving fault.
/// `None` means the error is not degradable (e.g. an invalid seed, or a
/// caller-requested cancellation).
fn degraded_reason(e: &Error) -> Option<DegradedReason> {
    match e {
        Error::Timeout { .. } => Some(DegradedReason::DeadlineExceeded),
        Error::QueueFull { .. } => Some(DegradedReason::QueueFull),
        Error::WorkerPanicked { .. } => Some(DegradedReason::WorkerPanicked),
        Error::PoolShutDown => Some(DegradedReason::IndexUnavailable),
        _ => None,
    }
}

/// One thread's serving scratch: the query workspace plus a drained
/// batch and its buffers, all reused across batches so steady-state
/// serving allocates only the replies.
struct JobScratch {
    ws: QueryWorkspace,
    /// The drained batch; [`run_jobs`] answers and empties it.
    jobs: Vec<Job>,
    seeds: Vec<usize>,
    out: DenseBlock,
}

impl JobScratch {
    fn new(bear: &Bear, block_width: usize) -> Self {
        JobScratch {
            ws: QueryWorkspace::for_bear(bear),
            jobs: Vec::with_capacity(block_width),
            seeds: Vec::with_capacity(block_width),
            out: DenseBlock::zeros(bear.num_nodes(), 0),
        }
    }
}

/// Worker body: pull jobs until the queue closes. After each blocking
/// pop, the worker *opportunistically* drains up to `block_width - 1`
/// more jobs without waiting ([`JobQueue::try_pop`]) and answers them
/// together ([`run_jobs`]) — a lone job therefore never waits for
/// company, and an idle queue degenerates to one job at a time (width-1
/// solves take the `matvec` kernels, so coalescing costs nothing when
/// there is nothing to coalesce).
fn worker_loop(
    bear: &Bear,
    queue: &JobQueue<Job>,
    metrics: &Metrics,
    block_width: usize,
    topk_strategy: TopKStrategy,
) {
    let mut scratch = JobScratch::new(bear, block_width);
    while let Some(job) = queue.pop() {
        scratch.jobs.push(job);
        while scratch.jobs.len() < block_width {
            match queue.try_pop() {
                Some(next) => scratch.jobs.push(next),
                None => break,
            }
        }
        run_jobs(bear, &mut scratch, metrics, topk_strategy);
    }
}

/// Sheds `job` when its deadline already passed or its caller cancelled,
/// replying with the matching typed error; returns whether it did.
/// Computing an answer nobody can use anymore only starves the queries
/// still inside their budget.
fn shed_if_dead(job: &Job, metrics: &Metrics) -> bool {
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        metrics.record_shed();
        metrics.record_timeout();
        let _ = job
            .reply
            .send((job.tag, Err(Error::Timeout { budget: job.budget.unwrap_or_default() })));
        return true;
    }
    if job.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        metrics.record_shed();
        let _ = job.reply.send((job.tag, Err(Error::Cancelled)));
        return true;
    }
    false
}

/// Answers the drained batch in `scratch.jobs`, leaving it empty; shared
/// by pool workers and caller-assist. Dead jobs (expired deadline,
/// cancelled caller) are shed without computing. Pruned top-k jobs are
/// answered one at a time — the pruned search is not block-shaped.
/// Every other job (full vectors, and top-k under
/// [`TopKStrategy::Full`], selected from its own column) shares one
/// [`Bear::query_block_into`] at whatever width survives. Panics become
/// [`Error::WorkerPanicked`] for the pruned job or the block that hit
/// them, so the pool (and assisting callers) survive poisoned inputs.
fn run_jobs(bear: &Bear, scratch: &mut JobScratch, metrics: &Metrics, topk_strategy: TopKStrategy) {
    // Failpoint `queue::pop`: simulate a slow dequeue path so jobs age
    // past their deadline. Only the Delay action makes sense here — pop
    // has no error channel — so that's all this site honors.
    #[cfg(feature = "failpoints")]
    if let Some(crate::failpoints::FailAction::Delay(d)) = crate::failpoints::armed("queue::pop") {
        std::thread::sleep(d);
    }
    let JobScratch { ws, jobs, seeds, out } = scratch;
    jobs.retain(|job| {
        if shed_if_dead(job, metrics) {
            return false;
        }
        let k = match job.kind {
            JobKind::TopK { k } if topk_strategy == TopKStrategy::Pruned => k,
            _ => return true,
        };
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Answer> {
            crate::fail_point!("engine::run_job");
            let (nodes, stats) =
                bear.query_top_k_pruned_in(job.seed, k, &TopKPruneOptions::default(), ws)?;
            metrics.record_topk_pruned(
                stats.certified,
                stats.candidates as u64,
                stats.nodes_pruned as u64,
            );
            Ok(Answer::TopK(Arc::new(nodes)))
        }))
        .unwrap_or_else(|_| {
            metrics.record_worker_panic();
            Err(Error::WorkerPanicked { seed: job.seed })
        });
        metrics.record_block(1, start.elapsed());
        // A receiver that hung up no longer wants the answer; ignore.
        let _ = job.reply.send((job.tag, outcome));
        false
    });
    if jobs.is_empty() {
        return;
    }
    seeds.clear();
    seeds.extend(jobs.iter().map(|j| j.seed));
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        crate::fail_point!("engine::run_job");
        out.reset(bear.num_nodes(), seeds.len());
        bear.query_block_into(seeds, ws, out)
    }));
    metrics.record_block(jobs.len(), start.elapsed());
    if outcome.is_err() {
        metrics.record_worker_panic();
    }
    for (j, job) in jobs.drain(..).enumerate() {
        let reply = match &outcome {
            Ok(Ok(())) => Ok(match job.kind {
                JobKind::Full => Answer::Full(Arc::new(out.col(j).to_vec())),
                JobKind::TopK { k } => {
                    Answer::TopK(Arc::new(top_k_excluding_seed(out.col(j), job.seed, k)))
                }
            }),
            // Seeds are validated at admission, so a typed error here is
            // a bug surfaced loudly to every member rather than swallowed.
            Ok(Err(e)) => Err(e.clone()),
            Err(_) => Err(Error::WorkerPanicked { seed: job.seed }),
        };
        let _ = job.reply.send((job.tag, reply));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::BearConfig;
    use crate::rwr::RwrConfig;
    use bear_graph::Graph;

    fn test_graph(n: usize) -> Graph {
        // Hub-spoke graph with a little extra structure.
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v));
            edges.push((v, 0));
        }
        for v in (1..n.saturating_sub(1)).step_by(3) {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    fn test_bear(n: usize) -> Arc<Bear> {
        Arc::new(Bear::new(&test_graph(n), &BearConfig::exact(0.15)).unwrap())
    }

    fn config(threads: usize, cache_capacity: usize) -> EngineConfig {
        EngineConfig { threads, cache_capacity, ..EngineConfig::default() }
    }

    #[test]
    fn engine_matches_sequential_query_bitwise() {
        let bear = test_bear(30);
        let engine = QueryEngine::new(Arc::clone(&bear), config(4, 0)).unwrap();
        for seed in 0..30 {
            let want = bear.query(seed).unwrap();
            let got = engine.query(seed).unwrap();
            assert_eq!(*got, want, "seed {seed}");
        }
    }

    #[test]
    fn engine_batch_matches_sequential_in_order() {
        let bear = test_bear(25);
        let engine = QueryEngine::new(Arc::clone(&bear), config(3, 32)).unwrap();
        let seeds: Vec<usize> = (0..25).rev().collect();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        let got = engine.query_batch(&seeds).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(**g, *w);
        }
        // Second pass is served from cache and stays bit-identical.
        let again = engine.query_batch(&seeds).unwrap();
        for (g, w) in again.iter().zip(&want) {
            assert_eq!(**g, *w);
        }
        assert!(engine.metrics().cache_hits >= seeds.len() as u64);
    }

    #[test]
    fn engine_validates_batch_seeds_upfront() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(2, 4)).unwrap();
        let before = engine.metrics().queries;
        let err = engine.query_batch(&[0, 3, 99, 5]).unwrap_err();
        assert_eq!(err, Error::IndexOutOfBounds { index: 99, bound: 10 });
        // Nothing was dispatched: no query was counted.
        assert_eq!(engine.metrics().queries, before);
    }

    #[test]
    fn cache_hit_returns_identical_scores_and_counts() {
        let bear = test_bear(12);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 16)).unwrap();
        let first = engine.query(3).unwrap();
        let second = engine.query(3).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit shares the cached Arc");
        assert_eq!(*first, bear.query(3).unwrap());
        let m = engine.metrics();
        assert_eq!(m.queries, 2);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn top_k_matches_bear_and_caches() {
        let bear = test_bear(15);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 16)).unwrap();
        let want = bear.query_top_k(2, 5).unwrap();
        let got = engine.query_top_k(2, 5, &QueryOptions::default()).unwrap();
        assert!(got.is_exact());
        assert_eq!(*got.nodes, want);
        let again = engine.query_top_k(2, 5, &QueryOptions::default()).unwrap();
        assert!(Arc::ptr_eq(&got.nodes, &again.nodes));
    }

    #[test]
    fn top_k_smaller_k_hits_cache_with_exact_prefix() {
        let bear = test_bear(15);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 16)).unwrap();
        let full = engine.query_top_k(2, 8, &QueryOptions::default()).unwrap();
        let before = engine.metrics();
        let small = engine.query_top_k(2, 3, &QueryOptions::default()).unwrap();
        let after = engine.metrics();
        assert_eq!(after.cache_hits, before.cache_hits + 1, "k' <= cached k is a hit");
        assert_eq!(small.nodes.len(), 3);
        // The prefix must be the cached answer's prefix, bit for bit.
        for (a, b) in small.nodes.iter().zip(full.nodes.iter()) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // A larger k than cached is a miss and replaces the entry.
        let bigger = engine.query_top_k(2, 10, &QueryOptions::default()).unwrap();
        assert_eq!(bigger.nodes.len(), 10);
        let m2 = engine.metrics();
        assert_eq!(m2.cache_misses, after.cache_misses + 1);
    }

    #[test]
    fn top_k_full_strategy_matches_pruned() {
        let bear = test_bear(15);
        let pruned = QueryEngine::new(Arc::clone(&bear), config(2, 0)).unwrap();
        let full_cfg = EngineConfig::builder()
            .threads(2)
            .cache_capacity(0)
            .topk_strategy(TopKStrategy::Full)
            .build()
            .unwrap();
        let full = QueryEngine::new(Arc::clone(&bear), full_cfg).unwrap();
        for seed in 0..15 {
            for k in [1, 4, 14, 20] {
                let a = pruned.query_top_k(seed, k, &QueryOptions::default()).unwrap();
                let b = full.query_top_k(seed, k, &QueryOptions::default()).unwrap();
                assert_eq!(a.nodes.len(), b.nodes.len());
                for (x, y) in a.nodes.iter().zip(b.nodes.iter()) {
                    assert_eq!(x.node, y.node);
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
            }
        }
        let m = pruned.metrics();
        assert!(m.topk_pruned_queries > 0, "pruned engine records pruning stats");
    }

    #[test]
    fn top_k_zero_k_is_empty_and_uncached() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(1, 16)).unwrap();
        let served = engine.query_top_k(4, 0, &QueryOptions::default()).unwrap();
        assert!(served.nodes.is_empty());
        assert!(served.is_exact());
        let m = engine.metrics();
        assert_eq!(m.cache_hits + m.cache_misses, 0, "k = 0 never touches cache or pool");
    }

    #[test]
    fn metrics_percentiles_populate() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(2, 0)).unwrap();
        for seed in 0..10 {
            engine.query(seed).unwrap();
        }
        let m = engine.metrics();
        assert_eq!(m.queries, 10);
        assert_eq!(m.cache_misses, 10);
        assert!(m.p50 > Duration::ZERO);
        assert!(m.p95 >= m.p50);
        assert!(m.p99 >= m.p95);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let bear = test_bear(8);
        let engine = QueryEngine::new(bear, config(1, 0)).unwrap();
        engine.query(1).unwrap();
        engine.query(1).unwrap();
        assert_eq!(engine.metrics().cache_hits, 0);
        assert_eq!(engine.cached_results(), 0);
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache: LruCache<usize, usize> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10)); // refresh 1
        cache.insert(3, 30); // evicts 2
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.len(), 2);
    }

    /// Satellite regression: a zero-capacity cache must store nothing.
    /// Before the guard, the eviction scan found no victim on the empty
    /// map and inserts grew it without bound.
    #[test]
    fn lru_cache_zero_capacity_is_a_hard_noop() {
        let mut cache: LruCache<usize, usize> = LruCache::new(0);
        for i in 0..1000 {
            cache.insert(i, i);
        }
        assert_eq!(cache.len(), 0, "zero-capacity cache must stay empty");
        assert_eq!(cache.get(&0), None);
        assert_eq!(cache.get(&999), None);
    }

    /// Satellite regression: cache hits must be attributed their own
    /// (tiny) latency, not the whole batch dispatch loop's.
    #[test]
    fn batch_metrics_attribute_hit_latency_per_result() {
        let bear = test_bear(20);
        let engine = QueryEngine::new(bear, config(2, 64)).unwrap();
        let seeds: Vec<usize> = (0..20).collect();
        engine.query_batch(&seeds).unwrap(); // all misses
        engine.query_batch(&seeds).unwrap(); // all cache hits
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 20);
        assert_eq!(m.cache_misses, 20);
        assert!(
            m.p50_hit <= m.p50_miss,
            "hit p50 {:?} must not exceed miss p50 {:?}",
            m.p50_hit,
            m.p50_miss
        );
    }

    #[test]
    fn config_rejects_zero_threads_and_zero_queue() {
        let bear = test_bear(6);
        let err = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig { threads: 0, ..EngineConfig::default() },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "threads", .. }), "{err}");
        let err =
            QueryEngine::new(bear, EngineConfig { queue_capacity: 0, ..EngineConfig::default() })
                .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "queue_capacity", .. }), "{err}");
    }

    #[test]
    fn config_rejects_zero_block_width_and_clamps_overlarge() {
        let bear = test_bear(6);
        let err = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig { block_width: 0, ..EngineConfig::default() },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "block_width", .. }), "{err}");
        // Overlarge widths are clamped to the queue capacity, not rejected
        // — a worker can never coalesce more jobs than the queue holds.
        let cfg = EngineConfig {
            threads: 2,
            queue_capacity: 4,
            block_width: 1_000_000,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.effective_block_width(), 4);
        let engine = QueryEngine::new(Arc::clone(&bear), cfg).unwrap();
        let want = bear.query(2).unwrap();
        assert_eq!(*engine.query(2).unwrap(), want);
    }

    #[test]
    fn config_builder_validates() {
        let cfg = EngineConfig::builder()
            .threads(2)
            .cache_capacity(8)
            .queue_capacity(16)
            .overload(OverloadPolicy::Block)
            .default_deadline(Some(Duration::from_millis(500)))
            .block_width(4)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.overload, OverloadPolicy::Block);
        assert_eq!(cfg.default_deadline, Some(Duration::from_millis(500)));
        assert_eq!(cfg.block_width, 4);
        assert!(EngineConfig::builder().threads(0).build().is_err());
        assert!(EngineConfig::builder().queue_capacity(0).build().is_err());
        assert!(EngineConfig::builder().block_width(0).build().is_err());
    }

    #[test]
    fn coalesced_batch_is_bitwise_identical_and_counted() {
        let bear = test_bear(40);
        // One worker and a deep queue: the batch below queues up faster
        // than the single worker drains it, so the worker finds company
        // on its try_pop drain and coalesces (caller-assist still answers
        // some jobs at width 1; both paths go through record_block).
        let engine = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig {
                threads: 1,
                cache_capacity: 0,
                queue_capacity: 64,
                block_width: 8,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let seeds: Vec<usize> = (0..40).chain(0..40).collect();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        let got = engine.query_batch(&seeds).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(**g, *w);
        }
        let m = engine.metrics();
        // Every answered query passed through record_block (width ≥ 1).
        assert_eq!(m.block_queries, seeds.len() as u64);
        assert!(m.block_solves >= 1 && m.block_solves <= seeds.len() as u64);
        assert!(m.avg_block_width() >= 1.0);
        let widths: u64 = m.block_width_histogram.iter().sum();
        assert_eq!(widths, m.block_solves);
    }

    #[test]
    fn empty_batch_returns_empty_without_dispatch() {
        let bear = test_bear(8);
        let engine = QueryEngine::new(bear, config(2, 4)).unwrap();
        let got = engine.query_batch(&[]).unwrap();
        assert!(got.is_empty());
        let m = engine.metrics();
        assert_eq!(m.queries, 0);
        assert_eq!(m.block_solves, 0);
    }

    #[test]
    fn serve_returns_exact_answers_when_healthy() {
        let bear = test_bear(12);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 8)).unwrap();
        let served = engine.serve(3, &QueryOptions::default()).unwrap();
        assert!(served.is_exact());
        assert_eq!(*served.scores, bear.query(3).unwrap());
        let batch = engine.serve_batch(&[1, 2, 3], &QueryOptions::default()).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(Served::is_exact));
    }

    #[test]
    fn serve_degrades_on_pool_shutdown() {
        let g = test_graph(16);
        let bear = Arc::new(Bear::new(&g, &BearConfig::exact(0.15)).unwrap());
        let fallback = Arc::new(
            FallbackSolver::new(&g, &RwrConfig { c: 0.15, ..RwrConfig::default() }, 200).unwrap(),
        );
        let engine = QueryEngine::with_fallback(Arc::clone(&bear), config(1, 0), fallback).unwrap();
        // Sabotage: close the queue out from under the engine, as if the
        // pool died. Every exact path now fails...
        engine.queue.close();
        assert_eq!(engine.query(2).unwrap_err(), Error::PoolShutDown);
        // ...but serve() still answers, tagged degraded.
        let served = engine.serve(2, &QueryOptions::default()).unwrap();
        let info = served.degraded.expect("must be degraded");
        assert_eq!(info.reason, DegradedReason::IndexUnavailable);
        assert!(info.residual >= 0.0);
        assert!(info.error_bound >= info.residual);
        let exact = bear.query(2).unwrap();
        let l1: f64 = exact.iter().zip(served.scores.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 1e-6, "degraded answer far from exact: {l1}");
        assert_eq!(engine.metrics().degraded, 1);
    }

    #[test]
    fn with_fallback_rejects_mismatched_solver() {
        let bear = test_bear(10);
        let other = test_graph(11);
        let fallback = Arc::new(FallbackSolver::new(&other, &RwrConfig::default(), 10).unwrap());
        let err = QueryEngine::with_fallback(bear, config(1, 0), fallback).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "fallback", .. }));
    }

    #[test]
    fn cancelled_query_is_shed_not_computed() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(1, 0)).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let opts = QueryOptions { deadline: None, cancel: Some(token) };
        // The job is dequeued already-cancelled: shed with Error::Cancelled.
        // (Caller-assist may also shed it inline; either way, no compute.)
        let err = engine.serve(1, &opts).unwrap_err();
        assert_eq!(err, Error::Cancelled);
        assert!(engine.metrics().shed_jobs >= 1);
    }

    /// Satellite regression: an already-expired (zero-budget) deadline
    /// fails fast with the typed `Timeout` at *admission* — the job is
    /// never enqueued, so nothing is shed at dequeue and no queue
    /// capacity is occupied by work nobody can use.
    #[test]
    fn already_expired_deadline_times_out_with_typed_error() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(1, 0)).unwrap();
        let opts = QueryOptions { deadline: Some(Duration::ZERO), cancel: None };
        let err = engine.serve(2, &opts).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }), "{err}");
        let m = engine.metrics();
        assert!(m.timeouts >= 1, "fail-fast timeout must be counted");
        assert_eq!(m.shed_jobs, 0, "dead job must not be enqueued then shed at dequeue");
        assert_eq!(engine.queue_depth(), 0);
    }

    /// Regression for a seed flake: a batch larger than the queue
    /// capacity must not trip `QueueFull` on its *own* backlog — the
    /// dispatching caller assists (drains queued jobs inline) when the
    /// queue fills, so the batch completes in bounded memory with answers
    /// still bit-identical and in order.
    #[test]
    fn batch_larger_than_queue_capacity_completes_exactly() {
        let bear = test_bear(30);
        let engine = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig {
                threads: 1,
                cache_capacity: 0,
                queue_capacity: 4,
                block_width: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let seeds: Vec<usize> = (0..30).chain(0..30).collect();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        let got = engine.query_batch(&seeds).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(**g, *w);
        }
        // Self-inflicted overload is not overload: no rejections counted.
        assert_eq!(engine.metrics().queue_rejections, 0);
    }

    #[test]
    fn queue_depth_is_bounded_and_observable() {
        let bear = test_bear(8);
        let engine = QueryEngine::new(
            bear,
            EngineConfig { threads: 1, cache_capacity: 0, queue_capacity: 2, ..Default::default() },
        )
        .unwrap();
        assert_eq!(engine.queue_depth(), 0);
        engine.query(1).unwrap();
        assert_eq!(engine.queue_depth(), 0, "drained after answering");
    }
}
