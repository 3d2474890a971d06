//! The offline side: repeated fits with their output checks, the fitness
//! of a fit against its input, and the traced fit split into compression
//! and ALS.

use crate::trace::{allocations, Tracer};
use crate::workload::{Input, Spec};
use dpar2_core::session::{FitObserver, FitPhase, IterationEvent, StopReason};
use dpar2_core::{compress, compress_sparse, CompressedTensor, Dpar2, FitOptions, Parafac2Fit};
use dpar2_linalg::Mat;
use dpar2_tensor::SparseIrregularTensor;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Fit options of every fit in the benchmark: the workload's rank, the
/// default tolerance, a 32-iteration cap and one thread per core.
pub fn options(spec: &Spec, seed: u64, threads: usize) -> FitOptions<'static> {
    FitOptions::new(spec.rank).with_max_iterations(32).with_threads(threads).with_seed(seed)
}

/// One `Dpar2::fit` / `Dpar2::fit_sparse` call.
pub fn fit_once(input: &Input, opts: &FitOptions<'_>) -> Parafac2Fit {
    match input {
        Input::Dense(t) => Dpar2.fit(t, opts),
        Input::Sparse(t) => Dpar2.fit_sparse(t, opts),
    }
    .expect("the workload's rank is valid for its input")
}

/// §IV-A fitness of `fit` against `input`. A sparse input is never
/// densified: `‖X − X̂‖² = ‖X‖² − 2⟨X, X̂⟩ + ‖X̂‖²`, with `⟨X, X̂⟩` summed
/// over the stored entries and `‖X̂_k‖² = Σ_rq (S UᵀU S)_rq (VᵀV)_rq`.
pub fn fitness(input: &Input, fit: &Parafac2Fit) -> f64 {
    match input {
        Input::Dense(t) => fit.fitness(t),
        Input::Sparse(t) => sparse_fitness(t, fit),
    }
}

fn sparse_fitness(t: &SparseIrregularTensor, fit: &Parafac2Fit) -> f64 {
    let r = fit.rank();
    let vtv = fit.v.gram();
    let mut norm_sq = 0.0;
    let mut err_sq = 0.0;
    for k in 0..t.k() {
        let (u, s, x) = (&fit.u[k], &fit.s[k], t.slice(k));
        let mut inner = 0.0;
        let mut us = vec![0.0; r];
        for i in 0..x.rows() {
            for (c, v) in us.iter_mut().enumerate() {
                *v = u.at(i, c) * s[c];
            }
            let (cols, vals) = x.row(i);
            for (&j, &val) in cols.iter().zip(vals) {
                let model: f64 = us.iter().zip(fit.v.row(j)).map(|(a, b)| a * b).sum();
                inner += val * model;
            }
        }
        let utu = u.gram();
        let mut model_sq = 0.0;
        for a in 0..r {
            for b in 0..r {
                model_sq += s[a] * s[b] * utu.at(a, b) * vtv.at(a, b);
            }
        }
        let x_sq = x.fro_norm_sq();
        norm_sq += x_sq;
        err_sq += x_sq - 2.0 * inner + model_sq;
    }
    1.0 - err_sq / norm_sq
}

fn bits(m: &Mat) -> impl Iterator<Item = u64> + '_ {
    m.data().iter().map(|x| x.to_bits())
}

/// Whether two fits are bit-identical: every factor and the criterion
/// trace.
pub fn identical(a: &Parafac2Fit, b: &Parafac2Fit) -> bool {
    a.iterations == b.iterations
        && a.u.len() == b.u.len()
        && a.u.iter().zip(&b.u).all(|(x, y)| x.shape() == y.shape() && bits(x).eq(bits(y)))
        && a.s.iter().flatten().map(|x| x.to_bits()).eq(b.s.iter().flatten().map(|x| x.to_bits()))
        && bits(&a.v).eq(bits(&b.v))
        && bits(&a.h).eq(bits(&b.h))
        && a.criterion_trace
            .iter()
            .map(|x| x.to_bits())
            .eq(b.criterion_trace.iter().map(|x| x.to_bits()))
}

/// Results of the repeated-fit phase.
pub struct FitPhaseResult {
    pub fit_secs: Vec<f64>,
    pub fitness: f64,
    pub failed: u64,
}

/// Fits `input` repeatedly until `budget` is spent (at least twice), and
/// checks every fit: bit-identical to the first, fitness above the floor.
/// Fitness is evaluated once, outside the timed calls.
pub fn fit_phase(
    spec: &Spec,
    input: &Input,
    opts: &FitOptions<'_>,
    budget: Duration,
) -> FitPhaseResult {
    let start = Instant::now();
    let mut fit_secs = Vec::new();
    let mut first: Option<Parafac2Fit> = None;
    let mut fitness_value = f64::NAN;
    let mut failed = 0;
    while fit_secs.len() < 2 || start.elapsed() < budget {
        let t0 = Instant::now();
        let fit = std::hint::black_box(fit_once(input, opts));
        fit_secs.push(t0.elapsed().as_secs_f64());
        match &first {
            None => {
                fitness_value = fitness(input, &fit);
                if fitness_value.is_nan() || fitness_value < spec.fitness_floor {
                    eprintln!("check failed: fitness {fitness_value} below {}", spec.fitness_floor);
                    failed += 1;
                }
                first = Some(fit);
            }
            Some(f) if !identical(f, &fit) => {
                eprintln!("check failed: fit {} differs from the first fit", fit_secs.len());
                failed += 1;
            }
            Some(_) => {}
        }
    }
    FitPhaseResult { fit_secs, fitness: fitness_value, failed }
}

/// What a fit observer saw of one ALS run.
#[derive(Default)]
pub struct AlsTrace {
    pub iter_secs: Vec<f64>,
    pub allocs_per_iter: Vec<f64>,
    pub init_secs: f64,
    pub finalize_secs: f64,
    last_allocs: u64,
}

/// Records ALS phases and iterations, and the allocations made between
/// consecutive iteration ends. Its own buffers are reserved up front so
/// it allocates nothing while the fit runs.
pub struct AlsObserver<'t> {
    pub als: AlsTrace,
    tracer: &'t mut Tracer,
}

impl<'t> AlsObserver<'t> {
    pub fn new(tracer: &'t mut Tracer) -> Self {
        let mut als = AlsTrace {
            iter_secs: Vec::with_capacity(64),
            allocs_per_iter: Vec::with_capacity(64),
            ..AlsTrace::default()
        };
        tracer.reserve(64);
        als.last_allocs = allocations();
        AlsObserver { als, tracer }
    }
}

impl FitObserver for AlsObserver<'_> {
    fn on_iteration(&mut self, event: &IterationEvent) -> ControlFlow<StopReason> {
        let now = allocations();
        // The first iteration's count also covers initialisation.
        if event.iteration > 1 {
            self.als.allocs_per_iter.push((now - self.als.last_allocs) as f64);
        }
        self.als.last_allocs = now;
        self.als.iter_secs.push(event.iteration_secs);
        self.tracer.record_child("als.iter", event.iteration_secs);
        ControlFlow::Continue(())
    }

    fn on_phase(&mut self, phase: FitPhase, secs: f64) {
        match phase {
            FitPhase::Init => self.als.init_secs += secs,
            FitPhase::Finalize => self.als.finalize_secs += secs,
            FitPhase::Compress | FitPhase::Iterate => {}
        }
    }
}

/// One traced fit: `compress` / `compress_sparse`, then
/// `fit_compressed_observed`, each in its own span under a `fit` span.
pub struct TracedFit {
    pub total_secs: f64,
    pub compress_secs: f64,
    pub size_floats: usize,
    pub als: AlsTrace,
    pub fit: Parafac2Fit,
}

pub fn traced_fit(input: &Input, opts: &FitOptions<'_>, tracer: &mut Tracer) -> TracedFit {
    let fit_span = tracer.begin("fit");
    let (ct, compress_secs): (CompressedTensor, f64) = tracer.span("compress", || {
        match input {
            Input::Dense(t) => compress(t, opts),
            Input::Sparse(t) => compress_sparse(t, opts),
        }
        .expect("the workload's rank is valid for its input")
    });
    let size_floats = ct.size_floats();
    let als_span = tracer.begin("als");
    let mut observer = AlsObserver::new(tracer);
    let fit = Dpar2
        .fit_compressed_observed(&ct, opts, &mut observer)
        .expect("fresh options carry no warm start");
    let als = observer.als;
    tracer.end(als_span);
    let total_secs = tracer.end(fit_span);
    TracedFit { total_secs, compress_secs, size_floats, als, fit }
}
