//! Station benchmark for the Choir workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `slotted_dense`, `slotted_sf10`, `unslotted_sparse` (closed
//! loops driving one `choir-station` with one decode worker) and
//! `city_sweep` (`choir-city`'s capacity sweep). `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` runs the per-layer
//! ladder. The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md for what each metric means and which layer moves it.

mod calib;
mod check;
mod city;
mod clock;
mod drive;
mod gen;
mod ladder;
mod selftest;
mod stats;

use std::process::{Command, ExitCode};

use choir_city::model::Scheme;
use choir_city::sim::run_city;
use choir_pool::ThreadPool;
use choir_trace::TraceLevel;

use check::FailClass;
use gen::StationRound;
use stats::{median, spread_line};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "slotted_dense",
    "slotted_sf10",
    "unslotted_sparse",
    "city_sweep",
];

/// Cold set-up measurements per run, each in a fresh process.
const SETUP_CHILDREN: usize = 5;

/// Flight-recorder records per thread in the traced run: one `service()`
/// call of an eight-user slot emits tens of thousands at `Full`, and the
/// recorder is drained after every call.
const TRACE_CAPACITY: usize = 1 << 18;

/// Named metric rows in report order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut items = Vec::new();
        for (name, value, unit) in &self.rows {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})"));
            }
            items.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", items.join(", ")))
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-child" {
            setup_child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|&&w| w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(*w);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

/// What a run prints as its result line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn round_for(workload: &str, seed: u64) -> StationRound {
    match workload {
        "slotted_dense" => gen::slotted_dense(seed),
        "slotted_sf10" => gen::slotted_sf10(seed),
        // The city drives no station; its traced run takes the station,
        // tracker and stage rows from the unslotted round of the same seed.
        _ => gen::unslotted_sparse(seed),
    }
}

/// One cold set-up, in this (fresh) process: build the station and push
/// the warm-up round through it, or for the city make the first
/// `run_city` call of the sweep. Returns its CPU seconds at nominal host
/// speed.
fn setup_once(workload: &str, seed: u64) -> f64 {
    let warm = (workload != "city_sweep").then(|| gen::warmup(workload, seed));
    let mut meter = calib::Meter::start();
    let t0 = clock::cpu_s();
    match &warm {
        None => {
            let cfg = city::config(seed, city::LOADS[0]);
            run_city(&cfg, Scheme::ALL[0], &ThreadPool::with_threads(1));
        }
        Some(round) => {
            drive::run_pass(round, || meter.tick());
        }
    }
    let t1 = clock::cpu_s();
    meter.finish().span(t0, t1)
}

/// Cold set-up times from `SETUP_CHILDREN` fresh processes of this
/// benchmark, run one after another and each waited for.
fn measure_setup(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..SETUP_CHILDREN {
        let out = Command::new(&exe)
            .args(["--setup-child", "--workload", args.workload])
            .args(["--seed", &args.seed.to_string()])
            .output()
            .map_err(|e| format!("starting the set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("SETUP "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up process failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        times.push(secs);
    }
    Ok(times)
}

fn failure_lines(attempted: usize, failed: &[usize; 4]) {
    let total: usize = failed.iter().sum();
    let classes: Vec<String> = FailClass::ALL
        .iter()
        .zip(failed)
        .map(|(c, n)| format!("{} {n}", c.tag()))
        .collect();
    println!(
        "frames: attempted {attempted}, failed {total} ({})",
        classes.join(", ")
    );
}

/// End-to-end run of a station workload.
fn station_e2e(args: &Args) -> Result<Outcome, String> {
    let round = round_for(args.workload, args.seed);
    println!(
        "round: {} slots, {} frames, {:.3} s of air, {} samples",
        round.slots.len(),
        round.frames.len(),
        round.air_s(),
        round.stream.len()
    );
    let setups = measure_setup(args)?;
    drive::run_pass(&gen::warmup(args.workload, args.seed), || {});

    let mut errors = Vec::new();
    let (mut rtf, mut goodput, mut client_slots, mut latencies) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, [0usize; 4]);
    let mut first_digest = None;
    let (mut wall_rtf, mut wall_latencies, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    while measured < args.seconds {
        let mut meter = calib::Meter::start();
        let pass = drive::run_pass(&round, || meter.tick());
        let nominal = meter.finish();
        measured += pass.wall_s;
        let verdict = drive::judge(&round, &pass.report);
        errors.extend(verdict.errors.iter().cloned());
        let d = drive::pass_digest(&pass.report);
        match &first_digest {
            None => {
                if !round.free_running {
                    if let Err(e) = drive::batch_identical(&round, &pass.report) {
                        errors.push(e);
                    }
                }
                first_digest = Some(d);
            }
            Some(f) if *f != d => errors.push("station output changed between passes".into()),
            Some(_) => {}
        }
        attempted += verdict.attempted;
        for (acc, n) in failed.iter_mut().zip(verdict.failed) {
            *acc += n;
        }
        let cpu = pass.nominal_s(&nominal);
        rtf.push(round.air_s() / cpu);
        goodput.push(verdict.delivered as f64 / cpu);
        client_slots.push(verdict.attempted as f64 / cpu);
        latencies.extend(pass.nominal_latencies_ms(&nominal));
        wall_rtf.push(round.air_s() / pass.wall_s);
        wall_latencies.extend_from_slice(&pass.latencies_ms);
        speeds.push(nominal.speed());
        if rtf.len() == 1 {
            println!(
                "pass 1: delivered {}/{}, cut early {}, spurious cuts {}, station {}",
                verdict.delivered,
                verdict.attempted,
                verdict.cut_early,
                verdict.spurious_cuts,
                pass.report.metrics.to_json()
            );
            for note in &verdict.notes {
                println!("pass 1: {note}");
            }
        }
    }
    println!("repeats: {} passes of the round", rtf.len());
    println!("{}", spread_line("host speed", "x nominal", &speeds));
    println!("{}", spread_line("rtf", "air-s/nominal-cpu-s", &rtf));
    println!(
        "{}",
        spread_line("rtf (wall clock)", "air-s/wall-s", &wall_rtf)
    );
    println!(
        "{}",
        spread_line("goodput_fps", "frames/nominal-cpu-s", &goodput)
    );
    println!(
        "{}",
        spread_line("latency_ms (per slot)", "nominal-cpu-ms", &latencies)
    );
    println!(
        "{}",
        spread_line("latency_ms (per slot, wall clock)", "ms", &wall_latencies)
    );
    println!("{}", spread_line("setup_s", "nominal-cpu-s", &setups));
    println!(
        "{}",
        spread_line(
            "city_client_slots_per_s",
            "client-slots/nominal-cpu-s",
            &client_slots
        )
    );
    failure_lines(attempted, &failed);
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let mut metrics = Metrics::default();
    metrics.push("rtf", median(&rtf), "s/s");
    metrics.push("goodput_fps", median(&goodput), "1/s");
    metrics.push("latency_p50_ms", median(&latencies), "ms");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("city_client_slots_per_s", median(&client_slots), "1/s");
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed: failed.iter().sum(),
        metrics,
    })
}

/// End-to-end run of `city_sweep`.
fn city_e2e(args: &Args) -> Result<Outcome, String> {
    let setups = measure_setup(args)?;
    let one = ThreadPool::with_threads(1);
    run_city(
        &city::config(args.seed, city::LOADS[0]),
        Scheme::ALL[0],
        &one,
    );

    let mut errors = Vec::new();
    let (mut rtf, mut goodput, mut client_slots, mut latencies) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0usize;
    let mut first: Option<Vec<u64>> = None;
    let mut top_choir = None;
    let (mut wall_rtf, mut speeds) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while measured < args.seconds {
        let mut meter = calib::Meter::start();
        let points = city::sweep(args.seed, &one, || meter.tick());
        let nominal = meter.finish();
        let wall: f64 = points.iter().map(|p| p.wall_s).sum();
        measured += wall;
        let cpu_ms: Vec<f64> = points
            .iter()
            .map(|p| nominal.span(p.cpu.0, p.cpu.1) * 1e3)
            .collect();
        let cpu = cpu_ms.iter().sum::<f64>() * 1e-3;
        errors.extend(city::check_sweep(&points));
        let d = city::digests(&points);
        match &first {
            None => first = Some(d),
            Some(f) if *f != d => errors.push("city transcript changed between sweeps".into()),
            Some(_) => {}
        }
        top_choir = points
            .iter()
            .rev()
            .find(|p| p.scheme == Scheme::Choir)
            .map(|p| p.stats);
        attempted += points.len();
        let air: f64 = points.iter().map(|p| p.air_s).sum();
        let delivered: f64 = points.iter().map(|p| p.stats.totals.delivered as f64).sum();
        rtf.push(air / cpu);
        goodput.push(delivered / cpu);
        client_slots.push(points.len() as f64 * city::client_slots() / cpu);
        latencies.extend(cpu_ms);
        wall_rtf.push(air / wall);
        speeds.push(nominal.speed());
    }
    // Identity: the top-load Choir run on two workers.
    let top = city::config(args.seed, city::LOADS[city::LOADS.len() - 1]);
    let two = run_city(&top, Scheme::Choir, &ThreadPool::with_threads(2));
    match top_choir {
        Some(one) if one.digest == two.digest && one.totals == two.totals => {
            println!(
                "identity: 1- and 2-worker digests {:#018x} match",
                one.digest
            )
        }
        _ => errors.push("city transcript differs between 1 and 2 workers".into()),
    }
    println!(
        "repeats: {} sweeps of {} run_city calls",
        rtf.len(),
        attempted / rtf.len().max(1)
    );
    println!("{}", spread_line("host speed", "x nominal", &speeds));
    println!(
        "{}",
        spread_line("rtf (simulated air)", "air-s/nominal-cpu-s", &rtf)
    );
    println!(
        "{}",
        spread_line("rtf (simulated air, wall clock)", "air-s/wall-s", &wall_rtf)
    );
    println!(
        "{}",
        spread_line(
            "goodput_fps (simulated deliveries)",
            "frames/nominal-cpu-s",
            &goodput
        )
    );
    println!(
        "{}",
        spread_line(
            "latency_ms (per run_city call)",
            "nominal-cpu-ms",
            &latencies
        )
    );
    println!("{}", spread_line("setup_s", "nominal-cpu-s", &setups));
    println!(
        "{}",
        spread_line(
            "city_client_slots_per_s",
            "client-slots/nominal-cpu-s",
            &client_slots
        )
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let mut metrics = Metrics::default();
    metrics.push("rtf", median(&rtf), "s/s");
    metrics.push("goodput_fps", median(&goodput), "1/s");
    metrics.push("latency_p50_ms", median(&latencies), "ms");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("city_client_slots_per_s", median(&client_slots), "1/s");
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed: 0,
        metrics,
    })
}

/// The traced per-layer run.
fn traced(args: &Args) -> Result<Outcome, String> {
    choir_trace::set_capacity(TRACE_CAPACITY).map_err(|e| e.to_string())?;
    let mut metrics = Metrics::default();
    ladder::kernels(&mut metrics)?;
    let round = round_for(args.workload, args.seed);
    if args.workload == "city_sweep" {
        println!(
            "station rows: the unslotted_sparse round of this seed (the city drives no station)"
        );
    }
    ladder::scanner(&round, &mut metrics);
    drive::run_pass(&gen::warmup(args.workload, args.seed), || {});
    let station = ladder::station(&round, args.seconds, &mut metrics);
    ladder::cells(&mut metrics)?;
    ladder::decoder_split(&round, &mut metrics);
    ladder::city(args.seed, &mut metrics);

    let errors: Vec<String> = station
        .verdicts
        .iter()
        .flat_map(|v| v.errors.clone())
        .collect();
    let attempted: usize = station.verdicts.iter().map(|v| v.attempted).sum();
    let mut failed = [0usize; 4];
    for v in &station.verdicts {
        for (acc, n) in failed.iter_mut().zip(v.failed) {
            *acc += n;
        }
    }
    println!(
        "repeats: {} untraced and {} Outcome-traced passes",
        station.rtf_off.len(),
        station.rtf_outcome.len()
    );
    println!(
        "{}",
        spread_line("rtf (trace Off)", "air-s/cpu-s", &station.rtf_off)
    );
    println!(
        "{}",
        spread_line("rtf (trace Outcome)", "air-s/cpu-s", &station.rtf_outcome)
    );
    failure_lines(attempted, &failed);
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    for (name, value, unit) in &metrics.rows {
        println!("ladder {name} = {value} {unit}");
    }
    let (attempted, failed) = if args.workload == "city_sweep" {
        (Scheme::ALL.len(), 0)
    } else {
        (attempted, failed.iter().sum())
    };
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    choir_trace::set_level(TraceLevel::Off);
    if args.setup_child {
        println!("SETUP {}", setup_once(args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    if let Err(e) = selftest::run() {
        eprintln!("perfbench: checker self-test failed: {e}");
        return ExitCode::FAILURE;
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host parallelism {parallelism}; dsp backend {} (CHOIR_DSP_BACKEND={}); decode workers 1",
        choir_dsp::backend::active().name(),
        std::env::var("CHOIR_DSP_BACKEND").unwrap_or_else(|_| "unset, auto".into())
    );
    let outcome = if args.trace {
        traced(&args)
    } else if args.workload == "city_sweep" {
        city_e2e(&args)
    } else {
        station_e2e(&args)
    };
    let result = outcome.and_then(|o| {
        let metrics = o.metrics.to_json()?;
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            o.correct, o.attempted, o.failed
        ))
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
