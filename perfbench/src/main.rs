//! The repository's benchmark. One run generates a workload's input from
//! the seed, sets up (several times, reporting the median), runs the
//! workload for `--seconds`, checks its outputs, and prints a provenance
//! line and then the result line on standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-tall --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics and records no spans.
//! `--trace 1` times each layer in spans instead and reports the
//! per-layer metrics, writing the spans to `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod fit;
mod layers;
mod report;
mod serve;
mod trace;
mod workload;

use report::{details_json, peak_rss_mib, result_json, Metrics};
use serve::{serve_phase, zipf_targets, Serving};
use std::time::{Duration, Instant};
use workload::{generate, Spec};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run; `setup_s` is their median and the last one is run.
const SETUP_REPEATS: usize = 3;
/// Length of the query target stream, cycled by the load generator.
const TARGETS: usize = 1 << 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 0, seconds: 20, trace: false };
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {key}"))?;
        let bad = |e: std::num::ParseIntError| format!("bad value for {key}: {e}");
        match key.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!("unknown workload {:?}; one of {:?}", args.workload, workload::NAMES);
        std::process::exit(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let opts = fit::options(&spec, args.seed, threads);
    let seconds = args.seconds as f64;

    // Set-up, repeated. Each repeat replaces the previous one, whose
    // server shuts down when dropped.
    let mut setup_secs = Vec::new();
    let mut serve_fit_secs = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let t0 = Instant::now();
        let gen = generate(&spec, args.seed);
        let serving = spec.serving_setup.then(|| Serving::start(&gen.input, opts));
        setup_secs.push(t0.elapsed().as_secs_f64());
        serve_fit_secs.extend(serving.iter().map(|(s, _)| s.fit_secs));
        setup = Some((gen, serving));
    }
    let (gen, serving) = setup.expect("at least one set-up");
    let targets = zipf_targets(gen.input.k(), TARGETS, args.seed);

    let (metrics, attempted, failed) = if args.trace {
        let run_id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let mut tracer = trace::Tracer::new(run_id);
        let traced =
            layers::traced_run(&spec, args.seed, &gen, serving, &targets, &opts, &mut tracer);
        eprintln!("self time by layer (s, spans):");
        for (name, secs, n) in tracer.self_times() {
            eprintln!("  {name:<16} {secs:>10.4} {n:>6}");
        }
        let path = format!("perfbench/out/trace-{}-seed{}.json", spec.name, args.seed);
        if let Err(e) = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("could not write {path}: {e}");
        }
        traced
    } else {
        end_to_end(&spec, &gen, serving, &targets, &opts, seconds, setup_secs, serve_fit_secs)
    };

    let details = details_json(spec.name, args.seed, args.seconds, args.trace, &metrics);
    println!("{details}");
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
}

/// The untraced run: fits (fit workloads), then serving with ingest.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    spec: &Spec,
    gen: &workload::Generated,
    serving: Option<(Serving, dpar2_core::StreamingDpar2)>,
    targets: &[u32],
    opts: &dpar2_core::FitOptions<'static>,
    seconds: f64,
    setup_secs: Vec<f64>,
    serve_fit_secs: Vec<f64>,
) -> (Metrics, u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (fit_secs, fitness, (serving, stream)) = match serving {
        Some(s) => (serve_fit_secs, s.0.fitness, s),
        None => {
            let budget = Duration::from_secs_f64(seconds * spec.fit_share);
            let r = fit::fit_phase(spec, &gen.input, opts, budget);
            attempted += r.fit_secs.len() as u64;
            failed += r.failed;
            (r.fit_secs, r.fitness, Serving::start(&gen.input, *opts))
        }
    };
    attempted += 1;
    if serving.fitness.is_nan() || serving.fitness < spec.fitness_floor {
        eprintln!(
            "check failed: served fit's fitness {} below {}",
            serving.fitness, spec.fitness_floor
        );
        failed += 1;
    }
    let r =
        serve_phase(spec, gen, &serving, stream, targets, seconds * (1.0 - spec.fit_share), 0.0);
    drop(serving);
    let (a, f) = r.counts();
    attempted += a;
    failed += f;
    r.log();
    eprintln!("fitness {fitness} (floor {})", spec.fitness_floor);

    let mut m = Metrics::default();
    m.samples("setup_s", "s", setup_secs);
    m.samples("fit_s", "s", fit_secs);
    m.value("peak_rss_mb", "MiB", peak_rss_mib());
    m.samples("ingest_staleness_s", "s", r.staleness_secs);
    (m, attempted, failed)
}
