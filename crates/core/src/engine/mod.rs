//! Concurrent query serving engine.
//!
//! BEAR's preprocessing is paid once so that each query is a handful of
//! sparse matrix–vector products (Algorithm 2). This module turns that
//! per-query cost into a serving path fit for sustained traffic:
//!
//! * [`QueryWorkspace`] preallocates every intermediate buffer of the
//!   block-elimination sweeps as column-major blocks sized from the
//!   [`Bear`] partition and reshaped in place to each query's width, so
//!   the steady-state compute path performs no heap allocation — the
//!   only allocation per answered query is the result vector handed to
//!   the caller, and a cache hit avoids even that by sharing an `Arc`.
//! * [`QueryEngine`] owns a persistent worker pool: threads are spawned
//!   once at construction and fed jobs over a shared queue. Each worker
//!   keeps one workspace for its whole lifetime and answers what it
//!   drains through the engine's one job path, which coalesces every
//!   full-vector job into one blocked solve and answers pruned top-k
//!   jobs one at a time. The submitting thread *assists*: while waiting
//!   for replies it drains the same queue through the same path with
//!   the engine's spare workspace, so a small pool (or a single-core
//!   host) answers a batch inline instead of ping-ponging between
//!   threads.
//! * An optional bounded LRU cache memoizes full score vectors and top-k
//!   answers keyed by seed, motivated by the skew of real query traffic
//!   (a few hub seeds dominate).
//! * [`Metrics`] tracks query count, cache hit rate, and latency
//!   percentiles via a fixed-bucket log₂ histogram — no dependencies.
//!
//! Results are bit-identical to sequential [`Bear::query`]: Algorithm 2
//! is implemented once, as stages over a block of right-hand sides that
//! every query path calls, and the blocked kernels make the same
//! floating-point operations in the same order per column as the
//! width-1 kernels.
//!
//! # Concurrency audit
//!
//! The synchronization skeleton — [`queue::JobQueue`] and [`Metrics`] —
//! imports its primitives through the `crate::sync` shim, so building
//! with `RUSTFLAGS="--cfg loom"` model-checks it against every relevant
//! thread interleaving (`cargo xtask analyze loom`, or directly:
//! `RUSTFLAGS="--cfg loom" cargo test -p bear-core --test loom_engine
//! --release`). The serving layer itself ([`QueryEngine`]) is compiled
//! out under `cfg(loom)` because it drives real OS worker threads.

use crate::precompute::Bear;
use bear_sparse::DenseBlock;

pub mod metrics;
pub mod queue;
#[cfg(not(loom))]
mod serving;

pub use metrics::{Metrics, MetricsSnapshot};
#[cfg(not(loom))]
pub use serving::{
    CancelToken, DegradedInfo, EngineConfig, EngineConfigBuilder, OverloadPolicy, QueryEngine,
    QueryOptions, Served, TopKServed, TopKStrategy,
};

/// Preallocated buffers for Algorithm 2's block-elimination sweeps
/// over a block of `k` right-hand sides, one column each.
///
/// Sized from a [`Bear`] partition (`n1` spokes, `n2` hubs); every query
/// path ([`Bear::query_into`], [`Bear::query_distribution_into`],
/// [`Bear::query_block_into`], the pruned top-k search) runs in one of
/// these and touches only it and the caller's output. Single-seed paths
/// use width 1. Blocks are reshaped in place ([`DenseBlock::reset`]),
/// keeping their backing allocations, so one workspace serves every
/// width and a serving worker allocates nothing for it in steady state.
pub struct QueryWorkspace {
    /// Result-assembly scratch in the reordered index space (length `n`).
    pub(crate) r: Vec<f64>,
    /// Permuted right-hand sides, spoke part (`n1 × k`); holds the spoke
    /// right-hand side `t₁ = c·q₁ − H₁₂r₂` once the hub sweep is done.
    pub(crate) q1: DenseBlock,
    /// Permuted right-hand sides, hub part (`n2 × k`).
    pub(crate) q2: DenseBlock,
    /// Spoke-block scratch (`n1 × k`); holds `r₁` after the spoke solve.
    pub(crate) t1: DenseBlock,
    /// Spoke-block scratch (`n1 × k`).
    pub(crate) t2: DenseBlock,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t3: DenseBlock,
    /// Hub-block scratch (`n2 × k`).
    pub(crate) t4: DenseBlock,
    /// Hub-part results `r₂` (`n2 × k`).
    pub(crate) r2: DenseBlock,
}

/// The name the blocked query path used for [`QueryWorkspace`] before
/// the two workspace types were merged; kept so existing callers of
/// [`Bear::query_block_into`] compile unchanged.
pub type BlockWorkspace = QueryWorkspace;

impl QueryWorkspace {
    /// Buffers sized for `bear`'s partition, starting at width zero; the
    /// first query widens them to its block.
    pub fn for_bear(bear: &Bear) -> Self {
        QueryWorkspace {
            r: vec![0.0; bear.num_nodes()],
            q1: DenseBlock::zeros(bear.n1, 0),
            q2: DenseBlock::zeros(bear.n2, 0),
            t1: DenseBlock::zeros(bear.n1, 0),
            t2: DenseBlock::zeros(bear.n1, 0),
            t3: DenseBlock::zeros(bear.n2, 0),
            t4: DenseBlock::zeros(bear.n2, 0),
            r2: DenseBlock::zeros(bear.n2, 0),
        }
    }

    /// Reshapes every block to width `k` for `bear`'s partition, reusing
    /// backing allocations. Contents are unspecified afterwards.
    pub(crate) fn ensure_width(&mut self, bear: &Bear, k: usize) {
        if self.q1.ncols() == k && self.q1.nrows() == bear.n1 && self.q2.nrows() == bear.n2 {
            return;
        }
        self.q1.reset(bear.n1, k);
        self.q2.reset(bear.n2, k);
        self.t1.reset(bear.n1, k);
        self.t2.reset(bear.n1, k);
        self.t3.reset(bear.n2, k);
        self.t4.reset(bear.n2, k);
        self.r2.reset(bear.n2, k);
    }
}
