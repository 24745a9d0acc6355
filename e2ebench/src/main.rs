//! `mapwave-e2ebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload report|design|sweep_faulted --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop of back-to-back passes
//! from a single client, alternating one worker and `nproc` workers, for
//! about `S` seconds. Every pass redoes all of its work (stage caches
//! emptied, a fresh sweep store) and has its outputs checked. Pass times
//! are corrected for host contention from the spans each pass records
//! (see `contention.rs`) and scaled to a reference host speed (see
//! `calibration.rs`). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` adds one traced pass at one worker and one at `nproc`
//! workers and prints the per-layer metrics, writing Chrome traces beside
//! the result file under `.e2ebench_out/`. The last stdout line is the JSON
//! result. See `e2ebench/README.md` for the workloads and what each metric
//! means.

mod calibration;
mod contention;
mod layers;
mod stats;
mod workloads;

use contention::Sample;
use mapwave::orchestrator;
use mapwave_harness::telemetry::{self, TelemetrySummary};
use stats::{number, quote, Provenance, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{
    headline_gaps, Checked, DesignOnly, Report, SweepFaulted, Workload, CANONICAL_SEED,
};

/// Rounds per run whatever `--seconds` says: every span needs passes to
/// be compared across.
const MIN_ROUNDS: usize = 3;
/// Calibration kernel runs before each pass, s.
const CALIBRATION_SECONDS: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: mapwave-e2ebench --workload report|design|sweep_faulted \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: CANONICAL_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("bad seed '{v}': {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace '{v}' (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Operations attempted and failed over a run. The first checked pass is
/// the reference: a later pass whose simulated outputs differ from it has
/// every operation counted as failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<u64>,
}

impl Tally {
    fn record(&mut self, c: Checked) {
        let reference = *self.reference.get_or_insert(c.fingerprint);
        self.attempted += c.attempted;
        self.failed += if reference == c.fingerprint {
            c.failed
        } else {
            c.attempted
        };
    }

    fn fail_pass(&mut self, ops: u64, err: &str) {
        eprintln!("pass failed: {err}");
        self.attempted += ops;
        self.failed += ops;
    }
}

/// One printed metric with its sample statistics.
struct Metric {
    name: &'static str,
    unit: &'static str,
    summary: Summary,
}

impl Metric {
    fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples).unwrap_or(Summary {
            n: 0,
            q1: f64::NAN,
            median: f64::NAN,
            q3: f64::NAN,
        });
        Metric {
            name,
            unit,
            summary,
        }
    }
}

/// `f` with telemetry recording, returning what it recorded.
fn traced<T>(f: impl FnOnce() -> T) -> (T, TelemetrySummary) {
    telemetry::reset();
    telemetry::enable();
    let value = f();
    telemetry::disable();
    let summary = telemetry::snapshot();
    telemetry::reset();
    (value, summary)
}

/// `f` timed, with the spans it recorded for the contention correction.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let ((value, secs), summary) = traced(|| {
        let start = Instant::now();
        let value = f();
        (value, start.elapsed().as_secs_f64())
    });
    (value, Sample::of(secs, &summary.spans))
}

/// One timed pass: prepare, time the run, check the outputs.
fn timed_pass<W: Workload>(w: &mut W, jobs: usize, tally: &mut Tally) -> Result<Sample, String> {
    w.prepare()?;
    let (out, sample) = timed(|| w.run(jobs));
    match out {
        Ok(out) => tally.record(w.check(&out)),
        Err(e) => tally.fail_pass(w.ops_per_pass(), &e),
    }
    Ok(sample)
}

/// One traced pass; `None` output if the pass failed.
fn traced_pass<W: Workload>(
    w: &mut W,
    jobs: usize,
    tally: &mut Tally,
) -> Result<(f64, TelemetrySummary, Option<W::Output>), String> {
    w.prepare()?;
    let ((secs, out), summary) = traced(|| {
        let _span = telemetry::span_labeled("bench.pass", format!("jobs={jobs}"));
        let start = Instant::now();
        let out = w.run(jobs);
        (start.elapsed().as_secs_f64(), out)
    });
    let out = match out {
        Ok(out) => {
            tally.record(w.check(&out));
            Some(out)
        }
        Err(e) => {
            tally.fail_pass(w.ops_per_pass(), &e);
            None
        }
    };
    Ok((secs, summary, out))
}

struct RunContext<'a> {
    args: &'a Args,
    nproc: usize,
    out_dir: &'a Path,
}

fn measure<W: Workload>(
    w: &mut W,
    ctx: &RunContext,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let result = measure_inner(w, ctx, tally);
    w.cleanup();
    result
}

fn measure_inner<W: Workload>(
    w: &mut W,
    ctx: &RunContext,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let nproc = ctx.nproc;

    // Closed loop, one client: each round runs one pass at each worker
    // count, alternating which goes first so drift in host speed lands on
    // both equally, and sets up once before each pass. A round starts
    // only if it should end within `--seconds`. The peak RSS is read after
    // the first one-worker pass, before worker threads make it depend on
    // their interleaving.
    let (mut setup, mut wall, mut wall_par) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    let start = Instant::now();
    let mut round_s: f64 = 0.0;
    let mut kernel_s = f64::INFINITY;
    for round in 0.. {
        let round_start = Instant::now();
        let mut order = [(1, false), (nproc, true)];
        if round % 2 == 1 {
            order.reverse();
        }
        for (jobs, parallel) in order {
            let (ok, sample) = timed(|| w.setup());
            ok?;
            setup.push(sample);
            let calibrating = Instant::now();
            while calibrating.elapsed().as_secs_f64() < CALIBRATION_SECONDS {
                kernel_s = kernel_s.min(calibration::kernel());
            }
            let sample = timed_pass(w, jobs, tally)?;
            eprintln!("pass: round {round} jobs {jobs}: {} s", sample.secs);
            if parallel {
                wall_par.push(sample);
            } else {
                wall.push(sample);
                if round == 0 {
                    peak_rss = stats::peak_rss_mib();
                }
            }
        }
        round_s = round_s.max(round_start.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        if round + 1 >= MIN_ROUNDS && elapsed + round_s > ctx.args.seconds {
            break;
        }
    }
    let scale = calibration::REFERENCE_S / kernel_s;
    eprintln!("calibration: fastest kernel {kernel_s} s, times scaled by {scale}");
    let at_reference = |samples: &[Sample]| -> Vec<f64> {
        contention::corrected(samples)
            .into_iter()
            .map(|secs| secs * scale)
            .collect()
    };
    let (setup, wall, wall_par) = (
        at_reference(&setup),
        at_reference(&wall),
        at_reference(&wall_par),
    );
    let wall_s = Summary::of(&wall).map_or(f64::NAN, |s| s.median);
    let wall_par_s = Summary::of(&wall_par).map_or(f64::NAN, |s| s.median);

    if !ctx.args.trace {
        // The paper-fidelity pair is a property of the product at the
        // canonical seed, whatever workload and seed this run measures.
        orchestrator::clear_caches();
        let canonical = Report::new(CANONICAL_SEED);
        let (edp_gap, penalty_gap) = match canonical.run(nproc) {
            Ok(out) => {
                let checked = canonical.check(&out);
                tally.attempted += checked.attempted;
                tally.failed += checked.failed;
                headline_gaps(&out.0)
            }
            Err(e) => {
                tally.fail_pass(canonical.ops_per_pass(), &e);
                (f64::NAN, f64::NAN)
            }
        };
        orchestrator::clear_caches();
        return Ok(vec![
            Metric::of("wall_s", "s", &wall),
            Metric::of("wall_par_s", "s", &wall_par),
            Metric::of("setup_s", "s", &setup),
            Metric::of("peak_rss_mb", "MiB", &[peak_rss]),
            Metric::of("edp_saving_gap_pp", "pp", &[edp_gap]),
            Metric::of("time_penalty_gap_pp", "pp", &[penalty_gap]),
        ]);
    }

    let (setup_ok, setup_trace) = traced(|| w.setup());
    setup_ok?;
    let (serial_wall_s, serial, out) = traced_pass(w, 1, tally)?;
    // The governor counts epochs whose cap it could not meet; any is a
    // failed cell check that the records alone do not show.
    let violations = serial.counter("governor.cap_violations");
    if violations > 0 {
        tally.fail_pass(
            violations.min(w.ops_per_pass()),
            &format!("{violations} governor cap violations"),
        );
    }
    let (extras, probes) = match &out {
        Some(out) => traced(|| w.probe(out)),
        None => traced(Vec::new),
    };
    drop(out);
    let (parallel_wall_s, parallel, out) = traced_pass(w, nproc, tally)?;
    drop(out);
    orchestrator::clear_caches();

    let base = format!("trace-{}-seed{}", ctx.args.workload, ctx.args.seed);
    for (suffix, summary) in [
        ("j1".to_string(), &serial),
        ("probes".to_string(), &probes),
        (format!("j{nproc}"), &parallel),
    ] {
        let path = ctx.out_dir.join(format!("{base}-{suffix}.json"));
        std::fs::write(&path, summary.chrome_trace_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let traced_run = layers::Traced {
        setup: &setup_trace,
        serial: &serial,
        serial_wall_s,
        probes: &probes,
        parallel: &parallel,
        parallel_wall_s,
        nproc,
        wall_s,
        wall_par_s,
        extras,
    };
    Ok(layers::metrics(&traced_run)
        .into_iter()
        .map(|(name, value, unit)| Metric::of(name, unit, &[value]))
        .collect())
}

fn metrics_json(metrics: &[Metric], full: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let s = &m.summary;
            let extra = if full {
                format!(
                    ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}",
                    s.n,
                    number(s.q1),
                    number(s.median),
                    number(s.q3)
                )
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
                quote(m.name),
                number(s.median),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf();
    let out_dir = root.join(".e2ebench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let provenance = Provenance::collect(&root);
    let ctx = RunContext {
        args: &args,
        nproc: provenance.nproc.max(1),
        out_dir: &out_dir,
    };
    let mut tally = Tally::default();
    let result = match args.workload.as_str() {
        "report" => measure(&mut Report::new(args.seed), &ctx, &mut tally),
        "design" => measure(&mut DesignOnly::new(args.seed), &ctx, &mut tally),
        "sweep_faulted" => measure(
            &mut SweepFaulted::new(args.seed, out_dir.clone()),
            &ctx,
            &mut tally,
        ),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let finite = metrics.iter().all(|m| m.summary.median.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    println!(
        "# workload {} seed {} trace {} | nproc {} | {} | commit {} | {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        provenance.nproc,
        provenance.rustc,
        provenance.commit,
        provenance.date
    );
    println!(
        "# {:<26} {:>22} {:>22} {:>22} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for m in &metrics {
        let s = &m.summary;
        println!(
            "  {:<26} {:>22} {:>22} {:>22} {:>4}  {}",
            m.name, s.median, s.q1, s.q3, s.n, m.unit
        );
    }
    println!(
        "# fail_frac {} = {} failed of {} operations (system runs, designs, sweep cells)",
        if tally.attempted > 0 {
            tally.failed as f64 / tally.attempted as f64
        } else {
            0.0
        },
        tally.failed,
        tally.attempted
    );

    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"provenance\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}}}\n",
        quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        number(args.seconds),
        provenance.json(),
        tally.attempted,
        tally.failed,
        metrics_json(&metrics, true)
    );
    let path = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics, false)
    );
    ExitCode::SUCCESS
}
