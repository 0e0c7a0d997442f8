//! # nds-stats — statistics substrate for the NDS reproduction
//!
//! This crate provides everything the simulators and the analytical model
//! need that is "statistics shaped":
//!
//! * deterministic, splittable pseudo-random number generation
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`], [`rng::StreamFactory`]),
//! * the service-time / think-time distributions used by the paper and its
//!   extensions ([`distributions`]),
//! * numerically careful special functions ([`special`]) shared with the
//!   analytical model crate,
//! * online summary statistics ([`summary::RunningStats`]),
//! * the batch-means confidence-interval procedure the paper cites from
//!   Kobayashi ([`batch_means`]), backed by Student-t quantiles
//!   ([`student_t`]),
//! * simple fixed-bin histograms ([`histogram`]),
//! * the workspace's one fan-out helper over scoped threads
//!   ([`parallel::parallel_map`]).
//!
//! The paper (Leutenegger & Sun, SC'93) validates its analysis with a CSIM
//! simulation using "batch means with 20 batches per simulation run and a
//! batch size of 1000 samples" at a 90% confidence level; [`batch_means`]
//! reproduces exactly that procedure.

#![forbid(unsafe_code)]

pub mod autocorr;
pub mod batch_means;
pub mod distributions;
pub mod error;
pub mod histogram;
pub mod order_stats;
pub mod parallel;
pub mod rng;
pub mod special;
pub mod student_t;
pub mod summary;

pub use batch_means::{BatchMeans, BatchMeansReport};
pub use distributions::{
    BoundedPareto, ClosedForm, Deterministic, Distribution, Erlang, Exponential, Geometric,
    Hyperexponential, Mixture, Shifted, UniformRange, Weibull,
};
pub use error::StatsError;
pub use histogram::Histogram;
pub use rng::{SplitMix64, StreamFactory, Xoshiro256StarStar};
pub use summary::RunningStats;
