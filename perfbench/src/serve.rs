//! The online side: publish a fit, index it, serve it over the wire to an
//! open-loop load generator in turn with ingest batches of new entities,
//! and check sampled wire answers against the version they claim.

use crate::fit::fitness;
use crate::report::{quantile, SplitMix};
use crate::workload::{Generated, Input, Spec};
use dpar2_core::{FitOptions, StreamingDpar2};
use dpar2_net::{ErrorCode, NetClient, NetServer, ServerConfig, TopKAnswer};
use dpar2_obs::MetricsRegistry;
use dpar2_parallel::ThreadPool;
use dpar2_serve::{
    build_and_install, IndexOptions, IngestWorker, ModelMeta, ModelRegistry, ModelVersion,
    QueryEngine, ServedModel,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry name of the served model.
pub const MODEL: &str = "bench";
/// Neighbours per query.
pub const K: u32 = 10;
const GAMMA: f64 = 0.02;
/// Wire connections of the load generator, one thread each.
const CONNECTIONS: usize = 2;
/// Every this-many-th answer per connection is checked bit for bit.
const SAMPLE_EVERY: usize = 8;
/// Offered rate, in queries per second over all connections, at which
/// `query_p50_us` is measured: well below what the server sustains on
/// every workload, so no backlog forms.
pub const NAMED_RATE: f64 = 1000.0;
/// Seconds of each stretch of named-rate queries over one set of
/// connections. Which cores the client and server threads share, and so
/// the round trip, is settled when connections start; fresh connections
/// every stretch, and the median over stretches, average that out.
const NAMED_CHUNK_SECS: f64 = 0.5;
/// Iteration cap of the streaming fits behind serving, as in the
/// repository's own serving benchmarks: each ingest refit is warm-started,
/// and a fixed budget keeps its cost the same from batch to batch.
const STREAM_ITERATIONS: usize = 8;
/// Latency limit of a query, timed from when it was due.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Lateness growth, last quarter over first quarter of a phase, that
/// counts as a growing backlog.
const LATENESS_GROWTH: Duration = Duration::from_millis(5);

/// The fixed ladder of offered rates `query_max_qps` is chosen from:
/// 250 q/s growing by 8% per rung to about 40k q/s.
fn ladder() -> Vec<f64> {
    (0..67).map(|i| 250.0 * 1.08f64.powi(i)).collect()
}

/// A published, indexed model behind a running server.
pub struct Serving {
    pub registry: Arc<ModelRegistry>,
    pub server: NetServer,
    pub obs: Arc<MetricsRegistry>,
    pub fit_secs: f64,
    pub fitness: f64,
}

impl Serving {
    /// Fits `input` through the streaming entry point, publishes the fit,
    /// builds its index and starts a server on a loopback port. Also
    /// returns the stream state an ingest worker continues from.
    pub fn start(input: &Input, opts: FitOptions<'static>) -> (Serving, StreamingDpar2) {
        let threads = opts.threads;
        let t0 = Instant::now();
        let mut stream = StreamingDpar2::new(opts.with_max_iterations(STREAM_ITERATIONS));
        match input {
            Input::Dense(t) => stream.append(t.to_slices()),
            Input::Sparse(t) => stream.append_sparse(t.slices().cloned().collect()),
        }
        .expect("the workload's rank is valid for its input");
        let fit = stream.decompose().expect("slices were appended");
        let fit_secs = t0.elapsed().as_secs_f64();
        let fitness = fitness(input, &fit);
        let registry = Arc::new(ModelRegistry::new());
        let version = registry.publish_arc(MODEL, ServedModel::from_parts(meta(), fit));
        build_and_install(&version, &IndexOptions::default(), &ThreadPool::new(1));
        let obs = Arc::new(MetricsRegistry::new());
        let engine = Arc::new(QueryEngine::new(Arc::clone(&registry), threads));
        let server = NetServer::start_observed(
            engine,
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::clone(&obs),
        )
        .expect("bind a loopback port");
        (Serving { registry, server, obs, fit_secs, fitness }, stream)
    }
}

fn meta() -> ModelMeta {
    ModelMeta::new(MODEL).with_gamma(GAMMA)
}

/// `count` query targets among the first `n` entities, Zipf-distributed
/// (exponent 1.1) over a seeded permutation, so a few entities are hot
/// and the cache sees both hits and misses.
pub fn zipf_targets(n: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix::new(seed ^ 0x2177);
    let mut perm: Vec<u32> = (0..u32::try_from(n).expect("entity ids fit in u32")).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += 1.0 / ((r + 1) as f64).powf(1.1);
        cdf.push(total);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * total;
            perm[cdf.partition_point(|&c| c < u).min(n - 1)]
        })
        .collect()
}

/// Whether a wire answer is bit-identical to the answer of the version it
/// claims, on the path it claims (index at its default probe depth, or the
/// exact scan).
fn check(version: &ModelVersion, target: u32, answer: &TopKAnswer) -> bool {
    let t = target as usize;
    let expected = if answer.indexed {
        match version.index() {
            Some(set) => set.top_k(&version.model, t, K as usize, None),
            None => return false,
        }
    } else {
        version.model.top_k(t, K as usize)
    }
    .expect("targets are in range");
    expected.len() == answer.neighbors.len()
        && expected
            .iter()
            .zip(&answer.neighbors)
            .all(|(&(e, s), &(ae, a_s))| e == ae as usize && s.to_bits() == a_s.to_bits())
}

/// What the load generator saw in one phase at one offered rate.
#[derive(Default)]
pub struct Load {
    /// Latency of every answered query, from when it was due.
    pub lat_ns: Vec<u64>,
    /// How late each query was sent.
    pub late_ns: Vec<u64>,
    pub scheduled: usize,
    pub errors: usize,
    pub refused: usize,
    /// Sampled answers checked against their version, and how many of
    /// them differed.
    pub checked: usize,
    pub wrong: usize,
    /// Sampled answers whose version was replaced before the check.
    pub unverified: usize,
    pub growing: bool,
}

impl Load {
    pub fn sent(&self) -> usize {
        self.late_ns.len()
    }

    /// Quantile `q` of the latencies, in microseconds.
    pub fn lat_quantile_us(&self, q: f64) -> f64 {
        quantile_us(&self.lat_ns, q)
    }

    /// Quantile `q` of the send lateness, in microseconds.
    pub fn late_quantile_us(&self, q: f64) -> f64 {
        quantile_us(&self.late_ns, q)
    }

    /// Queries that failed, were refused, answered wrongly, went unsent or
    /// answered later than the limit.
    pub fn misses(&self) -> usize {
        let limit = LATENCY_LIMIT.as_nanos() as u64;
        let slow = self.lat_ns.iter().filter(|&&l| l > limit).count();
        self.errors + self.refused + self.wrong + (self.scheduled - self.sent()) + slow
    }

    /// Whether the phase met the latency limit at its p99 with no failure
    /// and no growing backlog.
    pub fn passed(&self) -> bool {
        self.errors + self.refused + self.wrong == 0
            && self.sent() == self.scheduled
            && !self.growing
            && self.lat_quantile_us(0.99) <= LATENCY_LIMIT.as_secs_f64() * 1e6
    }

    fn merge(&mut self, other: Load) {
        self.lat_ns.extend(other.lat_ns);
        self.late_ns.extend(other.late_ns);
        self.scheduled += other.scheduled;
        self.errors += other.errors;
        self.refused += other.refused;
        self.checked += other.checked;
        self.wrong += other.wrong;
        self.unverified += other.unverified;
        self.growing |= other.growing;
    }
}

fn quantile_us(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    quantile(&ns.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>(), q)
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One connection's share of an offered load: query `c` of every
/// `CONNECTIONS` due times, starting at `start`.
struct Schedule {
    start: Instant,
    interval: Duration,
    n: usize,
    deadline: Instant,
    check: bool,
}

fn connection(
    addr: SocketAddr,
    registry: &ModelRegistry,
    targets: &[u32],
    c: usize,
    at: &Schedule,
) -> Load {
    let mut load = Load { scheduled: at.n, ..Load::default() };
    let mut client = NetClient::connect(addr).expect("connect to the loopback server");
    client.set_read_timeout(Some(Duration::from_secs(5))).expect("set a read timeout");
    let offset = at.interval.mul_f64(c as f64 / CONNECTIONS as f64);
    for i in 0..at.n {
        let due = at.start + offset + at.interval.mul_f64(i as f64);
        if Instant::now() > at.deadline {
            break;
        }
        sleep_until(due);
        load.late_ns.push(due.elapsed().as_nanos() as u64);
        let target = targets[(i * CONNECTIONS + c) % targets.len()];
        match client.top_k(MODEL, target, K) {
            Ok(Ok(answer)) => {
                load.lat_ns.push(due.elapsed().as_nanos() as u64);
                // Checked at once, in the gap before the next due time, so
                // no replaced version is kept alive for later.
                if at.check && i % SAMPLE_EVERY == 0 {
                    match registry.get(MODEL) {
                        Some(v) if v.version == answer.version => {
                            load.checked += 1;
                            if !check(&v, target, &answer) {
                                load.wrong += 1;
                            }
                        }
                        _ => load.unverified += 1,
                    }
                }
            }
            Ok(Err(e)) if e.code == ErrorCode::Overloaded => load.refused += 1,
            Ok(Err(e)) => {
                eprintln!("query failed: {e}");
                load.errors += 1;
            }
            Err(e) => {
                eprintln!("connection failed: {e}");
                load.errors += 1;
                break;
            }
        }
    }
    // A backlog shows as lateness rising from the first quarter of the
    // phase to the last.
    let late: Vec<f64> = load.late_ns.iter().map(|&x| x as f64).collect();
    let quarter = late.len() / 4;
    load.growing = quarter > 0
        && quantile(&late[late.len() - quarter..], 0.5) - quantile(&late[..quarter], 0.5)
            > LATENESS_GROWTH.as_nanos() as f64;
    load
}

/// Offers `rate` queries per second for `duration`, open loop: every
/// query has a due time fixed in advance, whatever happened to the ones
/// before it. With `check`, sampled answers are checked bit for bit.
pub fn offer(
    addr: SocketAddr,
    registry: &ModelRegistry,
    targets: &[u32],
    rate: f64,
    duration: Duration,
    check: bool,
) -> Load {
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / rate);
    let n = ((duration.as_secs_f64() / interval.as_secs_f64()) as usize).max(1);
    let start = Instant::now() + Duration::from_millis(5);
    let at =
        Schedule { start, interval, n, deadline: start + duration + Duration::from_secs(1), check };
    let mut load = Load::default();
    std::thread::scope(|s| {
        let at = &at;
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || connection(addr, registry, targets, c, at)))
            .collect();
        for h in handles {
            load.merge(h.join().expect("load generator thread"));
        }
    });
    if load.wrong > 0 {
        eprintln!("check failed: {} of {} sampled wire answers differ", load.wrong, load.checked);
    }
    load
}

/// Answers per second of the connections sending back to back, each
/// query right after the previous answer: the median over `windows`
/// consecutive windows of `window` each, so a stall of the machine in one
/// window does not move it.
fn closed_loop(addr: SocketAddr, targets: &[u32], window: Duration, windows: usize) -> f64 {
    let counts: Vec<Vec<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client =
                        NetClient::connect(addr).expect("connect to the loopback server");
                    client
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .expect("set a read timeout");
                    let start = Instant::now();
                    let mut answered = vec![0; windows];
                    let mut sent = 0;
                    loop {
                        let w = (start.elapsed().as_secs_f64() / window.as_secs_f64()) as usize;
                        if w >= windows {
                            break;
                        }
                        let target = targets[(sent * CONNECTIONS + c) % targets.len()];
                        sent += 1;
                        if matches!(client.top_k(MODEL, target, K), Ok(Ok(_))) {
                            answered[w] += 1;
                        }
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread")).collect()
    });
    let rates: Vec<f64> = (0..windows)
        .map(|w| counts.iter().map(|c| c[w]).sum::<usize>() as f64 / window.as_secs_f64())
        .collect();
    crate::report::median(&rates)
}

/// Probes per ladder search, after the closed-loop measurement.
const LADDER_PROBES: usize = 6;

/// The highest passing rung of the ladder, searched within `budget`. Near
/// the connections' closed-loop limit an open-loop probe passes or fails
/// by chance, so the search starts at the highest rung at or below 90% of
/// the closed-loop throughput and steps down until a rung passes. A rung
/// fails only if two probes fail, so one stall of the machine does not
/// move the answer; the search then skips a rung. Returns the rate, the
/// closed-loop throughput, and every probe made.
fn max_rate(
    addr: SocketAddr,
    registry: &ModelRegistry,
    targets: &[u32],
    budget: Duration,
) -> (f64, f64, Vec<(f64, Load)>) {
    let closed = closed_loop(addr, targets, budget.mul_f64(0.3 / 8.0), 8);
    let per_probe = budget.mul_f64(0.7 / LADDER_PROBES as f64);
    let rungs = ladder();
    let mut probes = Vec::new();
    let mut rung = rungs.iter().rposition(|&r| r <= 0.9 * closed);
    let mut failed_once = false;
    while let (Some(i), true) = (rung, probes.len() < LADDER_PROBES) {
        let load = offer(addr, registry, targets, rungs[i], per_probe, false);
        let passed = load.passed();
        probes.push((rungs[i], load));
        if passed {
            return (rungs[i], closed, probes);
        }
        if failed_once {
            rung = i.checked_sub(2);
        }
        failed_once = !failed_once;
    }
    (0.0, closed, probes)
}

/// Results of one serve phase.
pub struct ServeResult {
    /// Every query at the named rate, and each chunk's median latency.
    pub named: Load,
    pub chunk_p50_us: Vec<f64>,
    /// Highest passing ladder rung and the closed-loop throughput the
    /// search started from, with every probe made to find it.
    pub max_qps: Option<f64>,
    pub closed_loop_qps: f64,
    pub probes: Vec<(f64, Load)>,
    pub staleness_secs: Vec<f64>,
    pub ingest_batches: u64,
    pub ingest_errors: u64,
}

impl ServeResult {
    /// Writes what the load generator saw to standard error.
    pub fn log(&self) {
        if !self.closed_loop_qps.is_nan() {
            eprintln!("ladder: closed-loop throughput {:.0} q/s", self.closed_loop_qps);
        }
        for (rate, load) in &self.probes {
            eprintln!(
                "ladder: {rate:>8.0} q/s  {}  p99 {:>8.0} us  lateness p99 {:>8.0} us  sent {}/{}",
                if load.passed() { "pass" } else { "fail" },
                load.lat_quantile_us(0.99),
                load.late_quantile_us(0.99),
                load.sent(),
                load.scheduled,
            );
        }
        let n = &self.named;
        eprintln!(
            "named rate {NAMED_RATE} q/s: {} queries, p50 {:.0} us, p99 {:.0} us, {} missed the {} ms \
             limit; generator lateness p50 {:.0} us, p99 {:.0} us; {} answers checked, {} \
             unverifiable (version replaced first)",
            n.scheduled,
            n.lat_quantile_us(0.5),
            n.lat_quantile_us(0.99),
            n.misses(),
            LATENCY_LIMIT.as_millis(),
            n.late_quantile_us(0.5),
            n.late_quantile_us(0.99),
            n.checked,
            n.unverified,
        );
        eprintln!(
            "ingest: {} batches, staleness (s) {:?}",
            self.ingest_batches, self.staleness_secs
        );
    }

    /// Operations attempted and failed: queries sent, sampled answers
    /// checked, ingest batches.
    pub fn counts(&self) -> (u64, u64) {
        let loads = std::iter::once(&self.named).chain(self.probes.iter().map(|(_, l)| l));
        let (mut attempted, mut failed) = (self.ingest_batches, self.ingest_errors);
        for l in loads {
            attempted += (l.scheduled + l.checked) as u64;
            failed += (l.errors + l.refused + l.wrong) as u64;
        }
        (attempted, failed)
    }
}

/// How long one ingest batch may take before it counts as failed.
const INGEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Alternates writes and reads for `cycles_secs` (at least one cycle).
/// Each cycle appends one batch through an indexed ingest worker and waits
/// until the registry serves a version that holds it and has its index
/// installed — the batch's staleness — then serves [`NAMED_CHUNK_SECS`]
/// of queries at [`NAMED_RATE`] against that fresh version, over new
/// connections. Then, with the worker stopped, searches the rate ladder
/// for `ladder_secs` (skipped at 0).
pub fn serve_phase(
    spec: &Spec,
    gen: &Generated,
    serving: &Serving,
    stream: StreamingDpar2,
    targets: &[u32],
    cycles_secs: f64,
    ladder_secs: f64,
) -> ServeResult {
    let registry = &serving.registry;
    let addr = serving.server.local_addr();
    let worker = IngestWorker::spawn_indexed(
        stream,
        meta(),
        Arc::clone(registry),
        IndexOptions::default(),
        1,
    );
    let mut expected = registry.version(MODEL).expect("the model is published");
    let (mut named, mut chunk_p50_us, mut staleness_secs) = (Load::default(), vec![], vec![]);
    let (mut ingest_batches, mut ingest_errors) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(cycles_secs);
    loop {
        let batch = gen.ingest_batch(spec, ingest_batches as usize);
        let t0 = Instant::now();
        worker.append(batch);
        ingest_batches += 1;
        expected += 1;
        while !registry.get(MODEL).is_some_and(|v| v.version >= expected && v.index().is_some()) {
            if t0.elapsed() > INGEST_TIMEOUT || !worker.errors().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if t0.elapsed() > INGEST_TIMEOUT || !worker.errors().is_empty() {
            eprintln!("ingest batch {ingest_batches} failed: {:?}", worker.errors());
            ingest_errors += 1;
            break;
        }
        staleness_secs.push(t0.elapsed().as_secs_f64());
        let chunk = offer(
            addr,
            registry,
            targets,
            NAMED_RATE,
            Duration::from_secs_f64(NAMED_CHUNK_SECS),
            true,
        );
        chunk_p50_us.push(chunk.lat_quantile_us(0.5));
        named.merge(chunk);
        if Instant::now() >= deadline {
            break;
        }
    }
    worker.cancel();
    worker.shutdown();
    let (max_qps, closed_loop_qps, probes) = if ladder_secs > 0.0 {
        let (rate, closed, probes) =
            max_rate(addr, registry, targets, Duration::from_secs_f64(ladder_secs));
        (Some(rate), closed, probes)
    } else {
        (None, f64::NAN, Vec::new())
    };
    ServeResult {
        named,
        chunk_p50_us,
        max_qps,
        closed_loop_qps,
        probes,
        staleness_secs,
        ingest_batches,
        ingest_errors,
    }
}
