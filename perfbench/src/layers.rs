//! The traced run: each layer's call timed inside a span, from the
//! benchmark's own code, on the workload's data.

use crate::fit::{fit_once, identical, traced_fit, AlsObserver, AlsTrace};
use crate::report::{median, quantile, Metrics};
use crate::serve::{serve_phase, Serving, K, MODEL};
use crate::trace::Tracer;
use crate::workload::{generate, Generated, Input, Spec};
use dpar2_core::{FitOptions, StreamingDpar2};
use dpar2_linalg::kernel::{gemm_into, Trans};
use dpar2_linalg::{gaussian_mat, sparse, Mat, SparseSlice};
use dpar2_parallel::ThreadPool;
use dpar2_rsvd::{rsvd, rsvd_op, RsvdConfig};
use dpar2_serve::{IndexOptions, ModelIndexSet, QueryEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Untraced and traced fits, alternated.
const FIT_PAIRS: usize = 3;
/// Ingest batches appended and refitted on the benchmark's own stream.
const INGEST_REPEATS: usize = 3;
/// Queries per in-process query layer.
const LAYER_QUERIES: usize = 2000;
/// Minimum time spent timing one kernel.
const KERNEL_TIME: Duration = Duration::from_millis(300);

/// Repeats `f` until `KERNEL_TIME` has passed; seconds per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < KERNEL_TIME {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The traced run after set-up: returns the per-layer metrics and the
/// operations attempted and failed.
#[allow(clippy::too_many_lines)]
pub fn traced_run(
    spec: &Spec,
    seed: u64,
    gen: &Generated,
    mut setup_serving: Option<(Serving, StreamingDpar2)>,
    targets: &[u32],
    opts: &FitOptions<'static>,
    tracer: &mut Tracer,
) -> (Metrics, u64, u64) {
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let input = &gen.input;

    let (fresh, generate_secs) = tracer.span("data.generate", || generate(spec, seed));
    drop(fresh);
    m.value("data.generate_s", "s", generate_secs);

    // Kernels at the workload's stage-1 shapes.
    let (j, width) = (input.j(), spec.rank + RsvdConfig::new(spec.rank).oversample);
    let max_i = input.row_dims().into_iter().max().expect("inputs have slices");
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b) = (gaussian_mat(max_i, j, &mut rng), gaussian_mat(j, width, &mut rng));
    let mut c = Mat::default();
    let (gemm_secs, _) =
        tracer.span("linalg.gemm", || per_call(|| gemm_into(Trans::N, Trans::N, &a, &b, &mut c)));
    m.value("linalg.gemm_gflops", "GFLOP/s", 2.0 * (max_i * j * width) as f64 / gemm_secs / 1e9);
    let csr: Vec<SparseSlice> = match input {
        Input::Sparse(t) => t.slices().take(16).cloned().collect(),
        Input::Dense(t) => t.slice_views().take(16).map(SparseSlice::from_dense).collect(),
    };
    let nnz: usize = csr.iter().map(SparseSlice::nnz).sum();
    let (spmm_secs, _) = tracer.span("linalg.spmm", || {
        per_call(|| {
            for s in &csr {
                std::hint::black_box(sparse::spmm(s, &b));
            }
        })
    });
    m.value("linalg.spmm_gflops", "GFLOP/s", 2.0 * (nnz * width) as f64 / spmm_secs / 1e9);
    let cfg = RsvdConfig::new(spec.rank);
    let ((), stage1_secs) = tracer.span("rsvd.stage1", || match input {
        Input::Dense(t) => {
            for (k, s) in t.slice_views().enumerate() {
                std::hint::black_box(rsvd(s, &cfg, &mut StdRng::seed_from_u64(seed ^ k as u64)));
            }
        }
        Input::Sparse(t) => {
            for (k, s) in t.slices().enumerate() {
                std::hint::black_box(rsvd_op(s, &cfg, &mut StdRng::seed_from_u64(seed ^ k as u64)));
            }
        }
    });
    m.value("rsvd.stage1_s", "s", stage1_secs);
    let pool = ThreadPool::new(2);
    let items = [1u64, 2];
    let (map_secs, _) = tracer.span("pool.map", || {
        per_call(|| {
            std::hint::black_box(pool.map(&items, |_, &x| x + 1));
        })
    });
    m.value("pool.map_call_us", "us", map_secs * 1e6);

    // Fits: untraced `Dpar2::fit` calls alternate with traced ones split
    // into compression and ALS; both must give the same bits.
    let (mut plain_secs, mut traced_secs, mut compress_secs, mut accounted) =
        (vec![], vec![], vec![], vec![]);
    let mut fit_als: Vec<AlsTrace> = Vec::new();
    let mut size_floats = 0;
    let mut last_fit = None;
    for _ in 0..FIT_PAIRS {
        let t0 = Instant::now();
        let plain = fit_once(input, opts);
        plain_secs.push(t0.elapsed().as_secs_f64());
        let t = traced_fit(input, opts, tracer);
        attempted += 1;
        if !identical(&plain, &t.fit) {
            eprintln!("check failed: compress + fit_compressed_observed differs from Dpar2::fit");
            failed += 1;
        }
        traced_secs.push(t.total_secs);
        compress_secs.push(t.compress_secs);
        accounted.push(
            t.compress_secs
                + t.als.init_secs
                + t.als.iter_secs.iter().sum::<f64>()
                + t.als.finalize_secs,
        );
        size_floats = t.size_floats;
        fit_als.push(t.als);
        last_fit = Some(t.fit);
    }
    let ((), one_thread_secs) = tracer.span("fit.1t", || {
        std::hint::black_box(fit_once(input, &opts.with_threads(1)));
    });
    m.value("fitness", "1", crate::fit::fitness(input, last_fit.as_ref().expect("FIT_PAIRS > 0")));
    m.value("compress.s", "s", median(&compress_secs));
    m.value("compress.size_mfloats", "Mfloat", size_floats as f64 / 1e6);

    // Serving layers, on the published model and the workload's targets.
    let (serving, stream) = match setup_serving.take() {
        Some(s) => s,
        None => tracer.span("serve.start", || Serving::start(input, *opts)).0,
    };
    let version = serving.registry.get(MODEL).expect("the model is published");
    let index_pool = ThreadPool::new(1);
    let mut build_secs = Vec::new();
    for _ in 0..3 {
        let (set, secs) = tracer.span("index.build", || {
            ModelIndexSet::build(&version.model, &IndexOptions::default(), &index_pool)
        });
        std::hint::black_box(set);
        build_secs.push(secs);
    }
    let set = version.index().expect("set-up installs the index");
    let queries = &targets[..LAYER_QUERIES.min(targets.len())];
    let (mut probe_us, mut exact_us, mut engine_us) = (vec![], vec![], vec![]);
    let (mut scanned, mut total) = (0usize, 0usize);
    let probe_span = tracer.begin("index.probe");
    for &t in queries {
        let t0 = Instant::now();
        let (_, stats) =
            set.top_k_with_stats(&version.model, t as usize, K as usize, None).expect("in range");
        probe_us.push(us(t0.elapsed()));
        scanned += stats.candidates_scanned;
        total += stats.candidates_total;
    }
    tracer.end(probe_span);
    let exact_span = tracer.begin("exact.topk");
    for &t in queries {
        let t0 = Instant::now();
        std::hint::black_box(version.model.top_k(t as usize, K as usize).expect("in range"));
        exact_us.push(us(t0.elapsed()));
    }
    tracer.end(exact_span);
    let engine = QueryEngine::new(serving.registry.clone(), opts.threads);
    let engine_span = tracer.begin("engine.topk");
    for &t in queries {
        let t0 = Instant::now();
        std::hint::black_box(engine.top_k(MODEL, t as usize, K as usize).expect("in range"));
        engine_us.push(us(t0.elapsed()));
    }
    tracer.end(engine_span);
    let cache = engine.cache_stats();
    drop(version);
    m.value("index.build_s", "s", median(&build_secs));
    m.value("index.probe_us.p50", "us", median(&probe_us));
    m.value("index.scan_frac", "1", scanned as f64 / total.max(1) as f64);
    m.value("exact.topk_us.p50", "us", median(&exact_us));
    m.value("engine.topk_us.p50", "us", median(&engine_us));
    m.value("engine.topk_us.p99", "us", quantile(&engine_us, 0.99));
    m.value(
        "engine.cache_hit_frac",
        "1",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );

    // Ingest: the worker's append and refit, on a copy of its stream.
    let mut own = stream.clone();
    let (mut append_secs, mut refit_secs, mut refit_als) = (vec![], vec![], vec![]);
    for b in 0..INGEST_REPEATS {
        let batch = gen.ingest_batch(spec, b);
        let (res, secs) = tracer.span("ingest.append", || own.append(batch));
        res.expect("ingest batches match the model's columns");
        append_secs.push(secs);
        let refit = tracer.begin("ingest.refit");
        let mut observer = AlsObserver::new(tracer);
        own.decompose_observed(&mut observer).expect("slices were appended");
        refit_als.push(observer.als);
        refit_secs.push(tracer.end(refit));
    }
    drop(own);
    m.value("ingest.append_s", "s", median(&append_secs));
    m.value("ingest.refit_s", "s", median(&refit_secs));

    // ALS as the workload runs it: the fits' on fit workloads, the
    // refits' where serving drives the ALS.
    let als = if spec.serving_setup { &refit_als } else { &fit_als };
    let iter_ms: Vec<f64> = als.iter().flat_map(|a| a.iter_secs.iter().map(|s| s * 1e3)).collect();
    let allocs: Vec<f64> = als.iter().flat_map(|a| a.allocs_per_iter.iter().copied()).collect();
    m.value("als.iter_ms.p50", "ms", median(&iter_ms));
    m.value("als.iter_ms.p90", "ms", quantile(&iter_ms, 0.9));
    m.value(
        "als.iterations",
        "count",
        median(&als.iter().map(|a| a.iter_secs.len() as f64).collect::<Vec<_>>()),
    );
    m.value(
        "als.init_ms",
        "ms",
        median(&als.iter().map(|a| a.init_secs * 1e3).collect::<Vec<_>>()),
    );
    m.value(
        "als.finalize_ms",
        "ms",
        median(&als.iter().map(|a| a.finalize_secs * 1e3).collect::<Vec<_>>()),
    );
    m.value("als.allocs_per_iter", "count", if allocs.is_empty() { 0.0 } else { median(&allocs) });
    m.value("parallel.speedup_2t", "x", one_thread_secs / median(&plain_secs));

    // The wire: ingest and read cycles, then the rate ladder.
    let (r, _) =
        tracer.span("serve.phase", || serve_phase(spec, gen, &serving, stream, targets, 5.0, 5.0));
    r.log();
    let (a, f) = r.counts();
    attempted += a;
    failed += f;
    let snap = serving.obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let topk = snap
        .histogram("net_latency_topk_ns")
        .cloned()
        .unwrap_or_else(dpar2_obs::HistogramSnapshot::empty);
    let batch = snap
        .histogram("net_batch_size")
        .cloned()
        .unwrap_or_else(dpar2_obs::HistogramSnapshot::empty);
    m.value("net.server_topk_us.p50", "us", topk.p50() as f64 / 1e3);
    m.value("net.batch_size.mean", "count", batch.mean());
    m.value(
        "net.rejected",
        "count",
        counter("net_requests_rejected_total") + counter("net_connections_rejected_total"),
    );
    m.samples("query_p50_us", "us", r.chunk_p50_us.clone());
    m.value("query_p99_us", "us", r.named.lat_quantile_us(0.99));
    m.value("query_max_qps", "1/s", r.max_qps.expect("the ladder ran"));
    m.value("query_slo_miss_frac", "1", r.named.misses() as f64 / r.named.scheduled as f64);
    m.value("load.lateness_us.p99", "us", r.named.late_quantile_us(0.99));

    // Reconciliation and tracing overhead.
    let fit_s = median(&plain_secs);
    m.value("reconcile.fit_unaccounted_frac", "1", (fit_s - median(&accounted)) / fit_s);
    let staleness = median(&r.staleness_secs);
    let parts = median(&append_secs) + median(&refit_secs) + median(&build_secs);
    m.value("reconcile.staleness_unaccounted_frac", "1", (staleness - parts) / staleness);
    m.value("trace.overhead_frac", "1", median(&traced_secs) / fit_s - 1.0);
    eprintln!(
        "reconciliation: fit_s {fit_s:.4} s = compress {:.4} + init/iterations/finalize {:.4} + unaccounted {:.4}",
        median(&compress_secs),
        median(&accounted) - median(&compress_secs),
        fit_s - median(&accounted),
    );
    eprintln!(
        "reconciliation: ingest_staleness_s {staleness:.4} s = append {:.4} + refit {:.4} + index build {:.4} + unaccounted {:.4}",
        median(&append_secs),
        median(&refit_secs),
        median(&build_secs),
        staleness - parts,
    );
    drop(serving);
    (m, attempted, failed)
}
