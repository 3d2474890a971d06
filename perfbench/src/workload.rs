//! The three workloads: how each input is generated from the seed, and
//! the settings each run uses. Why each exists is in `perfbench/README.md`.

use dpar2_data::planted::powerlaw_row_dims;
use dpar2_data::{planted_parafac2, planted_sparse, registry};
use dpar2_linalg::Mat;
use dpar2_tensor::{IrregularTensor, SparseIrregularTensor};

/// The workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["fit-tall", "fit-sparse", "serve-mixed"];

/// Entities planted for serve-mixed before ingest starts.
const SERVE_ENTITIES: usize = 10_000;
/// Distinct entities kept aside for serve-mixed's ingest stream; batches
/// cycle through them.
const SERVE_INGEST_POOL: usize = 64 * 8;

/// Settings of one workload. Phase shares are fractions of `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Fit rank `R`.
    pub rank: usize,
    /// Slices per ingest batch.
    pub ingest_batch: usize,
    /// Fixed floor the fitness of every fit must clear.
    pub fitness_floor: f64,
    /// Whether the initial fit, publish, index and server start are
    /// set-up (serve-mixed) or part of the measured run, after the fits.
    pub serving_setup: bool,
    /// Share spent in repeated fits; the rest alternates ingest batches and
    /// reads.
    pub fit_share: f64,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "fit-tall" => Spec {
                name: "fit-tall",
                rank: 10,
                ingest_batch: 16,
                fitness_floor: 0.85,
                serving_setup: false,
                fit_share: 0.6,
            },
            "fit-sparse" => Spec {
                name: "fit-sparse",
                rank: 10,
                ingest_batch: 4,
                fitness_floor: 0.0,
                serving_setup: false,
                fit_share: 0.6,
            },
            "serve-mixed" => Spec {
                name: "serve-mixed",
                rank: 6,
                ingest_batch: 64,
                fitness_floor: 0.9,
                serving_setup: true,
                fit_share: 0.0,
            },
            _ => return None,
        };
        Some(spec)
    }
}

/// A generated input tensor.
pub enum Input {
    Dense(IrregularTensor),
    Sparse(SparseIrregularTensor),
}

impl Input {
    pub fn k(&self) -> usize {
        match self {
            Input::Dense(t) => t.k(),
            Input::Sparse(t) => t.k(),
        }
    }

    pub fn j(&self) -> usize {
        match self {
            Input::Dense(t) => t.j(),
            Input::Sparse(t) => t.j(),
        }
    }

    pub fn row_dims(&self) -> Vec<usize> {
        match self {
            Input::Dense(t) => t.row_dims(),
            Input::Sparse(t) => t.row_dims(),
        }
    }
}

/// A workload's input plus the slices its ingest stream appends.
pub struct Generated {
    pub input: Input,
    /// Slices ingest batches are cut from, cyclically.
    pub ingest_pool: Vec<Mat>,
}

impl Generated {
    /// Ingest batch number `b` (0-based).
    pub fn ingest_batch(&self, spec: &Spec, b: usize) -> Vec<Mat> {
        let n = self.ingest_pool.len();
        (0..spec.ingest_batch)
            .map(|i| self.ingest_pool[(b * spec.ingest_batch + i) % n].clone())
            .collect()
    }
}

/// Generates `spec`'s input from `seed`; the same seed gives the same
/// input.
pub fn generate(spec: &Spec, seed: u64) -> Generated {
    match spec.name {
        "fit-tall" => {
            let stock = registry()
                .into_iter()
                .find(|d| d.name == "US-Stock-sim")
                .expect("the dataset registry lists US-Stock-sim");
            let t = stock.generate_scaled(1.5, seed);
            // New listings re-use full-history stocks, so a batch costs the
            // same whatever the seed.
            let ingest_pool = t
                .slice_views()
                .filter(|s| s.rows() == t.max_i())
                .take(4 * spec.ingest_batch)
                .map(|s| s.to_mat())
                .collect();
            Generated { input: Input::Dense(t), ingest_pool }
        }
        "fit-sparse" => {
            let dims = powerlaw_row_dims(300, 500, 4000, seed);
            let t = planted_sparse(&dims, 2000, spec.rank, 1e-3, 0.0, seed);
            // Ingest appends dense slices; the shortest ones keep each
            // densified batch small.
            let mut order: Vec<usize> = (0..t.k()).collect();
            order.sort_by_key(|&k| (t.i(k), k));
            let ingest_pool =
                order[..2 * spec.ingest_batch].iter().map(|&k| t.slice(k).to_dense()).collect();
            Generated { input: Input::Sparse(t), ingest_pool }
        }
        "serve-mixed" => {
            let mut rng = crate::report::SplitMix::new(seed ^ 0x5E7E);
            let lens = [16, 24, 32];
            let dims: Vec<usize> = (0..SERVE_ENTITIES + SERVE_INGEST_POOL)
                .map(|_| lens[rng.below(lens.len())])
                .collect();
            let mut slices = planted_parafac2(&dims, 16, spec.rank, 0.1, seed).to_slices();
            let ingest_pool = slices.split_off(SERVE_ENTITIES);
            Generated { input: Input::Dense(IrregularTensor::new(slices)), ingest_pool }
        }
        other => unreachable!("unknown workload {other}"),
    }
}
