//! Graph substrate for the BEAR reproduction.
//!
//! Everything the BEAR algorithm and its baselines need from a graph
//! library, built from scratch on top of [`bear_sparse`]:
//!
//! * [`Graph`]: a directed, weighted graph stored as a CSR adjacency
//!   matrix, with row-normalization (the `Ã` of the paper) and
//!   symmetrization helpers;
//! * [`mod@slashburn`]: the SlashBurn hub-and-spoke node-reordering algorithm
//!   (Kang & Faloutsos, ICDM 2011) that BEAR's preprocessing builds on;
//! * [`components`]: connected components over node subsets;
//! * [`partition`]: BFS region-growing balanced partitioner (used by the
//!   B_LIN baseline);
//! * [`community`]: label-propagation community detection (used by the LU
//!   decomposition baseline's reordering rule);
//! * [`generators`]: R-MAT (with the `p_ul` knob of Section 4.4),
//!   Erdős–Rényi, preferential attachment, and an explicit hub-and-spoke
//!   synthesizer;
//! * [`io`]: whitespace edge-list parsing and writing.

pub mod community;
pub mod components;
pub mod conductance;
pub mod generators;
pub mod graph;
pub mod io;
pub mod partition;
pub mod slashburn;

pub use graph::Graph;
pub use slashburn::{slashburn, SlashBurnConfig, SlashBurnOrdering};
