//! The traced run's per-layer ladder: kernel (`choir-dsp`), tracker
//! (`lora-phy`), station (`choir-station`), slot and stage (`choir-core`),
//! flight recorder (`choir-trace`) and city (`choir-city`) rows.
//!
//! Timings here come from spans the benchmark takes around calls into
//! each layer's public functions; counts come from what the program
//! already exports (`StationMetrics`, `choir_core::profile` stage totals,
//! the `choir-trace` flight recorder at `Full`, `HypothesisCounts`,
//! `GatewayStats`).

use std::hint::black_box;
use std::time::Instant;

use choir_city::model::Scheme;
use choir_city::sim::run_city;
use choir_core::decoder::{ChoirDecoder, SlotView};
use choir_core::profile::{self, Stage};
use choir_dsp::complex::{c64, C64};
use choir_dsp::linalg::CholeskyFactor;
use choir_pool::ThreadPool;
use choir_station::StationConfig;
use choir_trace::{TraceEvent, TraceLevel};
use lora_phy::detect::StreamScanner;
use lora_phy::modem::Modem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{self, Pass, Verdict};
use crate::gen::{self, Cell, StationRound, CHUNK, PAYLOAD_LEN};
use crate::stats::median;
use crate::Metrics;

/// Timed repeats behind every median in the ladder.
const REPEATS: usize = 3;

/// O(n²) DFT with its own twiddles: the reference the FFT is checked
/// against before it is timed.
pub fn naive_dft(x: &[C64]) -> Vec<C64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = C64::ZERO;
            for (m, &v) in x.iter().enumerate() {
                let theta = -2.0 * std::f64::consts::PI * ((k * m) % n) as f64 / n as f64;
                acc += v * c64(theta.cos(), theta.sin());
            }
            acc
        })
        .collect()
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<C64> {
    (0..len)
        .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Relative error of `got` against `want` (max-norm).
fn rel_err(got: &[C64], want: &[C64]) -> f64 {
    let scale = want.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-300);
    got.iter()
        .zip(want)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max)
        / scale
}

/// Median ns per call of `f` over 15 batches of `batch` calls.
fn ns_per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    median(&per)
}

/// A k×k Hermitian positive-definite Gram matrix `AᴴA + 0.1·I` of a
/// random 2k×k `A`, row-major.
fn gram(rng: &mut StdRng, k: usize) -> Vec<C64> {
    let a = random_vec(rng, 2 * k * k);
    let mut g = vec![C64::ZERO; k * k];
    for i in 0..k {
        for j in 0..k {
            let mut s = C64::ZERO;
            for r in 0..2 * k {
                s += a[r * k + i].conj() * a[r * k + j];
            }
            g[i * k + j] = s;
        }
        g[i * k + i] += c64(0.1, 0.0);
    }
    g
}

/// ‖Gx − b‖ / ‖b‖ for a row-major k×k `g`.
pub fn solve_residual(k: usize, g: &[C64], x: &[C64], b: &[C64]) -> f64 {
    let mut r2 = 0.0;
    for i in 0..k {
        let mut s = C64::ZERO;
        for j in 0..k {
            s += g[i * k + j] * x[j];
        }
        r2 += (s - b[i]).norm_sqr();
    }
    let b2: f64 = b.iter().map(|z| z.norm_sqr()).sum();
    (r2 / b2.max(1e-300)).sqrt()
}

/// `choir-dsp` rows. Each kernel's output is checked against a
/// computation made here before it is timed.
pub fn kernels(out: &mut Metrics) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(0xD5B);
    for n in [256usize, 1024] {
        let x = random_vec(&mut rng, n);
        let plan = choir_dsp::fft::plan(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        let err = rel_err(&y, &naive_dft(&x));
        if err > 1e-9 {
            return Err(format!(
                "fft{n} differs from the naive DFT (rel err {err:e})"
            ));
        }
        let mut buf = x.clone();
        let ns = ns_per_call(20_000_000 / (n * 10), || {
            buf.copy_from_slice(&x);
            plan.forward(black_box(&mut buf));
        });
        out.push(&format!("dsp.fft{n}_ns"), ns, "ns");
    }
    let k = 4;
    let g = gram(&mut rng, k);
    let b = random_vec(&mut rng, k);
    let mut f = CholeskyFactor::new();
    let mut x = vec![C64::ZERO; k];
    if !f.factor(k, &g) {
        return Err("Cholesky factor rejected a positive-definite Gram matrix".into());
    }
    f.solve_into(&b, &mut x);
    let res = solve_residual(k, &g, &x, &b);
    if res > 1e-10 {
        return Err(format!("Gram solve residual ‖Gx−b‖/‖b‖ = {res:e}"));
    }
    let ns = ns_per_call(200_000, || {
        f.factor(k, black_box(&g));
        f.solve_into(black_box(&b), &mut x);
    });
    out.push("dsp.gram_solve_ns", ns, "ns");
    Ok(())
}

/// `lora-phy` rows: a standalone `StreamScanner` over the round's stream.
pub fn scanner(round: &StationRound, out: &mut Metrics) {
    let threshold = round.config().detect_threshold;
    let mut per_sample = Vec::new();
    let mut counts = None;
    for _ in 0..REPEATS {
        let mut s = StreamScanner::new(Modem::new(round.params), threshold);
        let mut hits = Vec::new();
        let t = Instant::now();
        for chunk in round.stream.chunks(CHUNK) {
            s.push(chunk, &mut hits);
        }
        s.flush(&mut hits);
        per_sample.push(t.elapsed().as_secs_f64() * 1e9 / round.stream.len() as f64);
        counts = Some(s.counts());
    }
    let c = counts.unwrap_or_default();
    out.push("phy.scan_ns_per_sample", median(&per_sample), "ns");
    out.push("phy.hyp_born", c.born as f64, "count");
    out.push("phy.hyp_confirmed", c.confirmed as f64, "count");
    out.push("phy.hyp_expired", c.expired as f64, "count");
    out.push("phy.hyp_merged", c.merged as f64, "count");
}

/// Flight-recorder tallies of one `Full`-level pass.
#[derive(Default)]
struct Tally {
    records: u64,
    residual_evals: u64,
    offset_searches: u64,
    sic_passes: u64,
    user_tracks: u64,
    peak_dedups: u64,
}

impl Tally {
    fn absorb(&mut self, records: Vec<choir_trace::Record>) {
        self.records += records.len() as u64;
        for r in records {
            match r.event {
                TraceEvent::OffsetSearch { evals, .. } => {
                    self.offset_searches += 1;
                    self.residual_evals += evals;
                }
                TraceEvent::SicPass { .. } => self.sic_passes += 1,
                TraceEvent::UserTrack { .. } => self.user_tracks += 1,
                TraceEvent::PeakDedup { .. } => self.peak_dedups += 1,
                _ => {}
            }
        }
    }
}

/// What the station rows measured, for the run's own report lines.
pub struct StationLadder {
    /// Judged untraced passes.
    pub verdicts: Vec<Verdict>,
    /// `rtf` of the untraced passes.
    pub rtf_off: Vec<f64>,
    /// `rtf` of the `Outcome`-traced passes.
    pub rtf_outcome: Vec<f64>,
}

/// `choir-station`, `choir-core` stage/count and `choir-trace` rows.
///
/// Passes run in (Off, Outcome, Outcome, Off) quads until `seconds` are
/// spent (at least one quad), so position effects cancel inside each quad;
/// then one `Full`-level pass drains the flight recorder after every call.
pub fn station(round: &StationRound, seconds: f64, out: &mut Metrics) -> StationLadder {
    let air = round.air_s();
    let mut cpu = [0.0f64; 2];
    let mut stages = [0.0f64; profile::NUM_STAGES];
    let mut push_us = Vec::new();
    let mut service_ms = Vec::new();
    let mut ladder = StationLadder {
        verdicts: Vec::new(),
        rtf_off: Vec::new(),
        rtf_outcome: Vec::new(),
    };
    let mut off_passes = 0usize;
    let mut last_off: Option<Pass> = None;
    let t = Instant::now();
    while ladder.rtf_off.is_empty() || t.elapsed().as_secs_f64() < seconds {
        for level in [
            TraceLevel::Off,
            TraceLevel::Outcome,
            TraceLevel::Outcome,
            TraceLevel::Off,
        ] {
            choir_trace::set_level(level);
            let _ = profile::snapshot_and_reset();
            let pass = drive::run_pass(round, || {});
            let spent = profile::snapshot_and_reset();
            choir_trace::set_level(TraceLevel::Off);
            choir_trace::clear();
            let traced = level == TraceLevel::Outcome;
            cpu[usize::from(traced)] += pass.cpu_s;
            if traced {
                ladder.rtf_outcome.push(air / pass.cpu_s);
                continue;
            }
            for (acc, s) in stages.iter_mut().zip(spent) {
                *acc += s;
            }
            off_passes += 1;
            ladder.rtf_off.push(air / pass.cpu_s);
            push_us.extend_from_slice(&pass.push_us);
            service_ms.extend_from_slice(&pass.service_ms);
            ladder.verdicts.push(drive::judge(round, &pass.report));
            last_off = Some(pass);
        }
    }
    let off_air = air * off_passes as f64;
    let per_air = |s: Stage| stages[s as usize] / off_air;
    out.push("station.push_chunk_us", median(&push_us), "us");
    out.push("station.service_ms", median(&service_ms), "ms");
    out.push("station.ingest_s_per_air_s", per_air(Stage::Ingest), "s/s");
    out.push("station.detect_s_per_air_s", per_air(Stage::Detect), "s/s");
    let cut_early = ladder.verdicts.first().map_or(0, |v| v.cut_early);
    out.push("station.cut_early", cut_early as f64, "count");
    if let Some(p) = &last_off {
        let m = p.report.metrics;
        out.push("station.slots_cut", m.slots_seen as f64, "count");
        out.push("station.slots_empty", m.slots_empty as f64, "count");
        out.push("station.max_queue_depth", m.max_queue_depth as f64, "count");
    }
    out.push("core.dechirp_s", per_air(Stage::Dechirp), "s/s");
    out.push("core.refine_s", per_air(Stage::Refine), "s/s");
    out.push("core.demod_s", per_air(Stage::Demod), "s/s");
    out.push("core.sic_s", per_air(Stage::Sic), "s/s");
    out.push("core.cluster_s", per_air(Stage::Cluster), "s/s");

    // One Full-level pass for the exact work counts.
    choir_trace::set_level(TraceLevel::Full);
    choir_trace::clear();
    let mut tally = Tally::default();
    let full = drive::run_pass(round, || tally.absorb(choir_trace::drain()));
    let dropped = choir_trace::dropped();
    choir_trace::set_level(TraceLevel::Off);
    choir_trace::clear();
    let m = full.report.metrics;
    let slots = m.slots_decoded.max(1) as f64;
    out.push(
        "core.residual_evals",
        tally.residual_evals as f64 / slots,
        "count/slot",
    );
    out.push(
        "core.offset_searches",
        tally.offset_searches as f64 / slots,
        "count/slot",
    );
    out.push(
        "core.sic_passes",
        tally.sic_passes as f64 / slots,
        "count/slot",
    );
    out.push(
        "core.user_tracks",
        tally.user_tracks as f64 / slots,
        "count/slot",
    );
    out.push(
        "core.peak_dedups",
        tally.peak_dedups as f64 / slots,
        "count/slot",
    );
    let ok_per_track = m.users_crc_ok as f64 / tally.user_tracks.max(1) as f64;
    out.push("core.ok_per_track", ok_per_track, "ratio");
    let overhead = 100.0 * (cpu[1] / cpu[0].max(1e-12) - 1.0);
    out.push("trace.outcome_overhead_pct", overhead, "%");
    out.push("trace.records", tally.records as f64, "count");
    out.push("trace.dropped", dropped as f64, "count");
    ladder
}

/// `core.slot_ms.<cell>`: `try_decode_view` on one slot of every ladder
/// cell, cut with the station's span arithmetic (the same captures the
/// slotted workloads' bit-identity check pins to the station's own).
pub fn cells(out: &mut Metrics) -> Result<(), String> {
    for cell in Cell::LADDER {
        let params = cell.params();
        let (capture, rel, payloads) = gen::ladder_slot(cell);
        let cfg = StationConfig::known_len(params, PAYLOAD_LEN);
        let decoder = ChoirDecoder::with_config(params, cfg.decoder);
        let view = SlotView::new(&capture, rel, cfg.num_data_symbols);
        let mut ms = Vec::new();
        for _ in 0..REPEATS {
            let t = Instant::now();
            let users = decoder.try_decode_view(view).unwrap_or_default();
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            for u in users.iter().filter(|u| u.payload_ok()) {
                let got = u.frame.as_ref().map(|f| f.payload.as_slice());
                if !payloads.iter().any(|p| Some(p.as_slice()) == got) {
                    return Err(format!(
                        "{} slot delivered a payload never sent",
                        cell.tag()
                    ));
                }
            }
        }
        out.push(&format!("core.slot_ms.{}", cell.tag()), median(&ms), "ms");
    }
    Ok(())
}

/// `core.discover_ms` and `core.decode_users_ms`: the two halves of a slot
/// decode, timed apart on every decodable slot of the round (slotted: the
/// scheduled captures; free-running: captures at each arrival's floor
/// window).
pub fn decoder_split(round: &StationRound, out: &mut Metrics) {
    let cfg = round.config();
    let n = round.n() as usize;
    let lead = cfg.lead_symbols * n;
    let spans: Vec<(usize, usize)> = if round.free_running {
        round
            .frames
            .iter()
            .map(|f| {
                let floor = f.start as usize / n * n;
                let a = floor.saturating_sub(lead);
                (a, (a + cfg.capture_len()).min(round.stream.len()))
            })
            .collect()
    } else {
        round
            .slots
            .iter()
            .filter(|s| s.cell != Cell::Noise)
            .map(|s| s.span)
            .collect()
    };
    let decoder = ChoirDecoder::with_config(round.params, cfg.decoder);
    let (mut discover, mut decode) = (0.0, 0.0);
    for &(a, b) in &spans {
        let cap = &round.stream[a..b];
        let t0 = Instant::now();
        let users = decoder.discover_users(cap, lead);
        let t1 = Instant::now();
        black_box(decoder.decode_with_users(cap, lead, cfg.num_data_symbols, users));
        let t2 = Instant::now();
        discover += t1.duration_since(t0).as_secs_f64();
        decode += t2.duration_since(t1).as_secs_f64();
    }
    let slots = spans.len().max(1) as f64;
    out.push("core.discover_ms", discover * 1e3 / slots, "ms");
    out.push("core.decode_users_ms", decode * 1e3 / slots, "ms");
}

/// `choir-city` rows: each scheme at the top load point on one worker.
pub fn city(seed: u64, out: &mut Metrics) {
    let cfg = crate::city::config(seed, crate::city::LOADS[crate::city::LOADS.len() - 1]);
    let pool = ThreadPool::with_threads(1);
    let (mut active, mut tx) = (0u64, 0u64);
    for scheme in Scheme::ALL {
        let mut ms = Vec::new();
        for rep in 0..REPEATS {
            let t = Instant::now();
            let st = run_city(&cfg, scheme, &pool);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                active += st.totals.active_slots;
                tx += st.totals.transmissions;
            }
        }
        out.push(&format!("city.run_ms.{}", scheme.tag()), median(&ms), "ms");
    }
    out.push("city.active_slots", active as f64, "count");
    out.push("city.transmissions", tx as f64, "count");
}
