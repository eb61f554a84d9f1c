//! End-to-end serving benchmark for the paged `ServingEngine`.
//!
//! ```text
//! servebench --workload <batch_decode|shared_prefix_chat> --seed <n> --seconds <s> --trace <0|1>
//! servebench compare <before.json> <after.json>
//! ```
//!
//! A run serves the `llama2_7b` toy model under A-MXFP4+ with one worker thread, driven
//! from this process by one seeded loop (see `driver`). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` repeats the run with engine telemetry on, replays each layer
//! (see `replay`), prints the per-layer metrics and writes a Chrome trace. Either way the
//! outputs are verified, a summary is printed, the result is stamped with the host facts
//! into `out/`, and the last line of standard output is the JSON result. End-to-end times
//! are scaled to a nominal host speed (see `calib`).

mod calib;
mod driver;
mod json;
mod replay;
mod report;
mod stats;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mx_llm::{ModelConfig, ModelQuantConfig, SeqRng, ServingEngine, TransformerModel};
use mx_telemetry::{Clock, MonotonicClock, Recorder, Telemetry, TelemetryConfig, Trace};

use crate::calib::Calibration;
use crate::driver::RunRecord;
use crate::report::{Host, Metrics, Verdict};
use crate::workload::Workload;

/// Where result files and traces go: inside the benchmark's own directory.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// Decode worker threads the engine runs with. One worker leaves the host's second core
/// to the rest of the system: with two, every pass waits for whichever worker the host
/// descheduled, and a busy neighbour slowed passes twice as much.
const THREADS: usize = 1;
/// Set-ups timed before serving, and again after verifying; `setup_s` is the median of
/// all of them. Timing set-ups at both ends of the run keeps one slow phase of the host
/// from setting the median.
const SETUP_REPEATS: usize = 5;
/// Host-speed samples taken before and after each set-up to scale its time.
const SETUP_SAMPLES: usize = 20;
/// Requests per run checked token for token against the f32 reference.
const VERIFY_SAMPLE: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| format!("bad seconds {value:?}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(report::compare(&argv[1..]));
    }
    match parse_args(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            ExitCode::from(2)
        }
    }
}

/// One set-up: builds the model (weights generated and cast) and the engine's page
/// pool, and warms the kernels up. Returns the model and the seconds it took on the
/// nominal host, from host-speed samples taken right before and after it.
fn build(workload: Workload, clock: &mut Calibration) -> (TransformerModel, f64) {
    let mark = clock.mark();
    (0..SETUP_SAMPLES).for_each(|_| clock.sample());
    let t = Instant::now();
    let m = TransformerModel::new(ModelConfig::llama2_7b(), ModelQuantConfig::a_mxfp4_plus());
    drop(ServingEngine::paged(&m, workload.spec().pool_pages).with_threads(THREADS));
    std::hint::black_box(m.generate_greedy(&[1, 2, 3], 2));
    let seconds = t.elapsed().as_secs_f64();
    (0..SETUP_SAMPLES).for_each(|_| clock.sample());
    (m, seconds * clock.factor_since(mark))
}

/// [`SETUP_REPEATS`] set-ups; returns the last model built and every set-up's seconds.
fn setup(workload: Workload, clock: &mut Calibration) -> (TransformerModel, Vec<f64>) {
    let (mut model, first) = build(workload, clock);
    let mut times = vec![first];
    for _ in 1..SETUP_REPEATS {
        drop(model);
        let (m, t) = build(workload, clock);
        model = m;
        times.push(t);
    }
    (model, times)
}

/// Serves the workload once: one engine serves rounds back to back until the next round
/// would end past `seconds` of wall time (at least one round). Each round is a
/// measurement window, its times scaled by the host-speed samples taken during it.
fn serve(model: &TransformerModel, args: &Args, telemetry: Option<Arc<dyn Clock>>, rec: &mut Recorder) -> RunRecord {
    let w = args.workload;
    let mut engine = ServingEngine::paged(model, w.spec().pool_pages).with_threads(THREADS);
    if let Some(clock) = telemetry {
        engine = engine.with_telemetry(TelemetryConfig::on_with_clock(clock));
    }
    let vocab = model.config().vocab;
    let mut record = RunRecord::default();
    let mut clock = Calibration::new();
    let wall = Instant::now();
    for round in 0.. {
        let (first, mark, start) = (record.requests.len(), clock.mark(), clock.now());
        let round_wall = Instant::now();
        driver::drive(&mut engine, &w.requests(args.seed, round, vocab), &mut clock, rec, &mut record);
        record.close_round(first, start, clock.now(), clock.factor_since(mark));
        if (wall.elapsed() + round_wall.elapsed()).as_secs_f64() > args.seconds as f64 {
            break;
        }
    }
    record.factor = clock.factor_since(0);
    record
}

/// Checks every request finished by length, and a seeded sample token for token against
/// `TransformerModel::generate_greedy` (the f32 reference; paged == f32 is a contract).
fn verify(model: &TransformerModel, record: &RunRecord, seed: u64) -> Verdict {
    let mut verdict = Verdict::from_finishes(record);
    let n = record.requests.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SeqRng::new(seed, 0xfeed);
    for i in 0..VERIFY_SAMPLE.min(n) {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        order.swap(i, j);
        let idx = order[i];
        let req = &record.requests[idx];
        verdict.checked += 1;
        if model.generate_greedy(&req.prompt, req.max_new) != record.outputs[idx] {
            verdict.mismatched += 1;
            verdict.bad[idx] = true;
        }
    }
    verdict
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let mut setup_clock = Calibration::new();
    let (model, mut setup_times) = setup(w, &mut setup_clock);
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_backend: mx_formats::kernels::active_backend().name(),
        model: model.config().name.clone(),
        quant: model.quant().name(),
        threads: THREADS,
        workload: w.name(),
        seed: args.seed,
        seconds: args.seconds,
    };
    println!(
        "servebench: workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host.to_json());

    let mut metrics = Metrics::default();
    let mut faithful = true;
    let mut untraced_rec = Telemetry::disabled().recorder(0);
    let record = serve(&model, args, None, &mut untraced_rec);
    let (record, verdict) = if args.trace {
        // The same workload again with the engine's telemetry and the benchmark's own
        // spans recorded against one clock, then the layer replay.
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let hub = Telemetry::new(&TelemetryConfig::on_with_clock(Arc::clone(&clock)));
        let mut rec = hub.recorder(0);
        let mut traced = serve(&model, args, Some(clock), &mut rec);
        report::serving_layers(&traced, THREADS, &mut metrics);
        let overhead = traced.seconds_per_token() / record.seconds_per_token() - 1.0;
        metrics.push("telemetry.overhead_frac", overhead, "fraction");
        faithful = replay::replay(&model, &mut rec, &mut metrics).unwrap_or_else(|e| {
            eprintln!("servebench: the layer replay could not allocate its caches: {e:?}");
            false
        });
        drop(rec);
        let mut verdict = verify(&model, &traced, args.seed);
        // Token identity with telemetry on and off. The two runs may serve a different
        // number of rounds, so match requests by prompt.
        let untraced: HashMap<&[usize], &Vec<usize>> =
            record.requests.iter().map(|r| r.prompt.as_slice()).zip(&record.outputs).collect();
        for (i, r) in traced.requests.iter().enumerate() {
            if untraced.get(r.prompt.as_slice()).is_some_and(|&off| *off != traced.outputs[i]) {
                verdict.bad[i] = true;
            }
        }
        let mut events = std::mem::take(&mut traced.events);
        events.extend_from_slice(hub.drain_trace().events());
        events.sort_by_key(|e| (e.ts_nanos, e.lane));
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", w.name(), args.seed);
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, Trace::new(events).to_chrome_json()))
        {
            Ok(()) => println!("chrome trace: {path}"),
            Err(e) => eprintln!("servebench: could not write {path}: {e}"),
        }
        (traced, verdict)
    } else {
        let verdict = verify(&model, &record, args.seed);
        let peak_rss_mb = report::peak_rss_mb();
        setup_times.extend((0..SETUP_REPEATS).map(|_| build(w, &mut setup_clock).1));
        let setup_s = stats::Sample::new(setup_times).q(0.5);
        metrics = report::end_to_end(&record, w.spec(), &verdict, setup_s, peak_rss_mb);
        (record, verdict)
    };

    let factors = stats::Sample::new(record.factors.clone());
    println!(
        "host speed: nominal/measured {:.3} over the run, {:.3}..{:.3} over {} rounds (end-to-end times are scaled by it)",
        record.factor,
        factors.q(0.0),
        factors.q(1.0),
        factors.len()
    );
    let sent = record.requests.len();
    let failed = verdict.failed();
    println!(
        "requests: sent={sent} ok={} failed={failed} error_rate={} ({} checked against generate_greedy, {} mismatched)",
        sent - failed,
        failed as f64 / sent.max(1) as f64,
        verdict.checked,
        verdict.mismatched
    );
    println!("metrics ({}):", if args.trace { "per layer; GEMM FLOPs computed from shapes" } else { "end to end" });
    metrics.print();
    let correct = failed == 0 && sent > 0 && faithful && metrics.all_finite();
    let line = report::result_line(correct, sent, failed, &metrics);
    let path = format!("{OUT_DIR}/{}-seed{}-trace{}.json", w.name(), args.seed, u8::from(args.trace));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, report::result_file(&host, &line)))
    {
        eprintln!("servebench: could not write {path}: {e}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
