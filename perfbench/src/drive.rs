//! The closed loop that streams a round through the station, and the judge
//! of its output.

use choir_core::decoder::{ChoirDecoder, SlotCapture, SlotResult};
use choir_pool::ThreadPool;
use choir_station::{Station, StationReport};

use crate::calib::NominalClock;
use crate::check::{self, CutTiming, Delivery};
use crate::clock::Stamp;
use crate::gen::{StationRound, CHUNK, PAYLOAD_LEN};

/// Everything one pass of a round through a fresh station measured.
pub struct Pass {
    /// Wall seconds inside `push_chunk`, `service` and `finish` calls.
    pub wall_s: f64,
    /// Program CPU seconds inside the same calls.
    pub cpu_s: f64,
    /// Program CPU interval of each of those calls.
    calls: Vec<(f64, f64)>,
    /// Per slot: wall ms from the start of the `push_chunk` call that
    /// completed its capture to the end of the call that yielded its
    /// result.
    pub latencies_ms: Vec<f64>,
    /// The same per-slot intervals in program CPU time.
    slot_spans: Vec<(f64, f64)>,
    /// Duration of every `push_chunk` call, µs.
    pub push_us: Vec<f64>,
    /// Duration of every `service` call that yielded a result, ms.
    pub service_ms: Vec<f64>,
    /// The station's final report.
    pub report: StationReport,
}

/// Slot bookkeeping read from outside the station, as the steps in its
/// public counters.
#[derive(Default)]
struct SlotClock {
    /// Seen-but-not-finished slots awaiting a decode, by the instant their
    /// capture completed.
    pending: std::collections::VecDeque<Stamp>,
    seen: u64,
    decoded: u64,
    empty: u64,
    latencies_ms: Vec<f64>,
    slot_spans: Vec<(f64, f64)>,
}

impl SlotClock {
    /// Accounts the counter steps of one call spanning `[t0, t1]`.
    fn step(&mut self, station: &Station, t0: Stamp, t1: Stamp) {
        let m = station.metrics();
        for _ in self.seen..m.slots_seen {
            self.pending.push_back(t0);
        }
        self.seen = m.slots_seen;
        // A gated-empty slot finishes inside the call that cut it.
        for _ in self.empty..m.slots_empty {
            if let Some(a) = self.pending.pop_back() {
                self.done(a, t1);
            }
        }
        self.empty = m.slots_empty;
        for _ in self.decoded..m.slots_decoded {
            if let Some(a) = self.pending.pop_front() {
                self.done(a, t1);
            }
        }
        self.decoded = m.slots_decoded;
    }

    /// Records a slot seen at `a` and finished at `b`.
    fn done(&mut self, a: Stamp, b: Stamp) {
        self.latencies_ms.push(a.wall_to(&b) * 1e3);
        self.slot_spans.push((a.cpu, b.cpu));
    }
}

/// Streams `round` through a fresh one-worker station in `CHUNK`-sample
/// chunks, calling `service()` after each chunk, then `finish()`.
/// `after_call` runs outside the timed intervals after every call (the
/// traced run drains the flight recorder there).
pub fn run_pass(round: &StationRound, mut after_call: impl FnMut()) -> Pass {
    let mut station =
        Station::new(round.config(), round.schedule()).with_pool(ThreadPool::with_threads(1));
    let mut clock = SlotClock::default();
    let mut wall_s = 0.0;
    let mut calls = Vec::new();
    let mut push_us = Vec::new();
    let mut service_ms = Vec::new();
    for chunk in round.stream.chunks(CHUNK) {
        let t0 = Stamp::now();
        station.push_chunk(chunk);
        let t1 = Stamp::now();
        clock.step(&station, t0, t1);
        after_call();
        let d = t0.wall_to(&t1);
        wall_s += d;
        calls.push((t0.cpu, t1.cpu));
        push_us.push(d * 1e6);

        let before = station.metrics().slots_decoded;
        let t2 = Stamp::now();
        station.service();
        let t3 = Stamp::now();
        clock.step(&station, t2, t3);
        after_call();
        let d = t2.wall_to(&t3);
        wall_s += d;
        calls.push((t2.cpu, t3.cpu));
        if station.metrics().slots_decoded > before {
            service_ms.push(d * 1e3);
        }
    }
    // `finish` consumes the station, so its counter steps are read from
    // the report it returns.
    let t0 = Stamp::now();
    let report = station.finish();
    let t1 = Stamp::now();
    after_call();
    wall_s += t0.wall_to(&t1);
    calls.push((t0.cpu, t1.cpu));
    let m = report.metrics;
    let finished = (m.slots_empty - clock.empty) + (m.slots_decoded - clock.decoded);
    for _ in clock.seen..m.slots_seen {
        clock.pending.push_back(t0);
    }
    for _ in 0..finished {
        if let Some(a) = clock.pending.pop_front() {
            clock.done(a, t1);
        }
    }
    Pass {
        wall_s,
        cpu_s: calls.iter().map(|(a, b)| b - a).sum(),
        calls,
        latencies_ms: clock.latencies_ms,
        slot_spans: clock.slot_spans,
        push_us,
        service_ms,
        report,
    }
}

impl Pass {
    /// CPU seconds of the timed calls at nominal host speed.
    pub fn nominal_s(&self, clock: &NominalClock) -> f64 {
        self.calls.iter().map(|&(a, b)| clock.span(a, b)).sum()
    }

    /// Per-slot latencies in CPU ms at nominal host speed. The station
    /// runs one thread at a time, so on a dedicated core these equal the
    /// wall latencies.
    pub fn nominal_latencies_ms(&self, clock: &NominalClock) -> Vec<f64> {
        self.slot_spans
            .iter()
            .map(|&(a, b)| clock.span(a, b) * 1e3)
            .collect()
    }
}

/// What the judge found in one pass's output.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Frames transmitted.
    pub attempted: usize,
    /// Frames delivered with their exact payload.
    pub delivered: usize,
    /// Lost frames per [`FailClass`] (index-aligned with `FailClass::ALL`).
    pub failed: [usize; 4],
    /// Arrivals the free-running station cut before their floor window.
    pub cut_early: usize,
    /// Free-running cuts near no arrival.
    pub spurious_cuts: usize,
    /// One line per lost frame and per spurious cut, for the run header.
    pub notes: Vec<String>,
    /// What the output got wrong; empty when it is right.
    pub errors: Vec<String>,
}

/// Judges a pass: payloads against generator truth, slot accounting, and
/// (free-running) every arrival cut exactly once within a window of its
/// floor window.
pub fn judge(round: &StationRound, report: &StationReport) -> Verdict {
    let n = round.n();
    let m = &report.metrics;
    let mut v = Verdict {
        attempted: round.frames.len(),
        ..Verdict::default()
    };
    if !m.slots_accounted() {
        v.errors
            .push(format!("slot accounting broken: {}", m.to_json()));
    }
    if m.slots_shed > 0 || !report.shed.is_empty() || m.samples_dropped > 0 {
        v.errors.push(format!(
            "station shed work: {} slots, {} samples",
            m.slots_shed, m.samples_dropped
        ));
    }
    let mut deliveries = Vec::new();
    let mut cut_of: Vec<Option<CutTiming>> = vec![None; round.frames.len()];
    if round.free_running {
        let cuts: Vec<u64> = report.slots.iter().map(|s| s.slot_start).collect();
        let mut claimed = vec![false; cuts.len()];
        for (f, frame) in round.frames.iter().enumerate() {
            let near = check::cuts_near(&cuts, frame.start, n);
            if near.len() != 1 {
                v.errors.push(format!(
                    "arrival at {} cut {} times within a window of its floor window",
                    frame.start,
                    near.len()
                ));
            }
            if let Some(&c) = near.first() {
                claimed[c] = true;
                let timing = check::classify_cut(cuts[c], frame.start, n);
                v.cut_early += usize::from(timing == CutTiming::Early);
                cut_of[f] = Some(timing);
            }
        }
        for (c, _) in claimed.iter().enumerate().filter(|(_, &taken)| !taken) {
            v.spurious_cuts += 1;
            let nearest = round
                .frames
                .iter()
                .min_by_key(|f| f.start.abs_diff(cuts[c]));
            if let Some(f) = nearest {
                let windows = (cuts[c] as f64 - (f.start / n * n) as f64) / n as f64;
                v.notes.push(format!(
                    "spurious cut at sample {}: {windows:+} windows from the floor window of the {} arrival at {}",
                    cuts[c],
                    if f.overlapped { "paired" } else { "lone" },
                    f.start
                ));
            }
        }
        for s in &report.slots {
            for u in s.result.ok_users() {
                if let Some(frame) = &u.frame {
                    deliveries.push(Delivery {
                        group: 0,
                        payload: frame.payload.clone(),
                    });
                }
            }
        }
    } else {
        if m.slots_seen != round.slots.len() as u64 {
            v.errors.push(format!(
                "station saw {} slots of {}",
                m.slots_seen,
                round.slots.len()
            ));
        }
        for s in &report.slots {
            let Some(group) = round.slots.iter().position(|t| t.start == s.slot_start) else {
                v.errors.push(format!(
                    "decoded slot at {} was never scheduled",
                    s.slot_start
                ));
                continue;
            };
            for u in s.result.ok_users() {
                if let Some(frame) = &u.frame {
                    deliveries.push(Delivery {
                        group,
                        payload: frame.payload.clone(),
                    });
                }
            }
        }
    }
    let frames: Vec<(usize, &[u8])> = round
        .frames
        .iter()
        .map(|f| (f.group, f.payload.as_slice()))
        .collect();
    let matched = check::match_deliveries(&frames, &deliveries);
    if matched.false_ok > 0 {
        v.errors.push(format!(
            "{} CRC-ok deliveries carry a payload that was not transmitted",
            matched.false_ok
        ));
    }
    if matched.duplicates > 0 {
        v.errors.push(format!(
            "{} frames delivered more than once",
            matched.duplicates
        ));
    }
    v.delivered = matched.delivered_count();
    for (f, frame) in round.frames.iter().enumerate() {
        if !matched.delivered[f] {
            let class = check::fail_class(frame.knee, frame.overlapped, cut_of[f]);
            v.failed[class as usize] += 1;
            let what = if round.free_running {
                let kind = if frame.overlapped { "paired" } else { "lone" };
                format!(
                    "{kind} frame at sample {} (cut {:?})",
                    frame.start, cut_of[f]
                )
            } else {
                let cell = round.slots.get(frame.group).map_or("?", |s| s.cell.tag());
                format!("frame of slot {} ({cell})", frame.group)
            };
            v.notes.push(format!("lost {what}: {}", class.tag()));
        }
    }
    v
}

/// Bit-exact digest of decode results: any divergence, even a last-ulp
/// float, changes it (same fields as the `station_soak` bench's digest).
fn digest(results: &[&SlotResult]) -> Vec<u64> {
    let mut d = Vec::new();
    for r in results {
        d.push(r.users.len() as u64);
        d.push(u64::from(r.error.is_some()));
        for u in &r.users {
            d.push(u.user.offset_bins.to_bits());
            d.push(u.user.frac.to_bits());
            d.push(u.user.channel.re.to_bits());
            d.push(u.user.channel.im.to_bits());
            d.push(u.user.timing_chips.to_bits());
            d.extend(u.symbols.iter().map(|&s| u64::from(s)));
            d.push(u.sync_errors as u64);
            d.push(u.erasures as u64);
            d.push(u64::from(u.payload_ok()));
        }
    }
    d
}

/// Digest of a pass's decoded slots, in slot order.
pub fn pass_digest(report: &StationReport) -> Vec<u64> {
    let results: Vec<&SlotResult> = report.slots.iter().map(|s| &s.result).collect();
    digest(&results)
}

/// Checks that the slotted station's output is bit-identical to
/// `decode_slots_with_pool` over the same captures (cut from the stream
/// with the station's own span arithmetic).
pub fn batch_identical(round: &StationRound, report: &StationReport) -> Result<(), String> {
    let n = round.params.samples_per_symbol();
    let lead = round.config().lead_symbols * n;
    let captures: Vec<SlotCapture> = report
        .slots
        .iter()
        .filter_map(|s| round.slots.iter().find(|t| t.start == s.slot_start))
        .map(|t| {
            SlotCapture::known_len(
                &round.params,
                round.stream[t.span.0..t.span.1].to_vec(),
                lead,
                PAYLOAD_LEN,
            )
        })
        .collect();
    let decoder = ChoirDecoder::with_config(round.params, round.config().decoder);
    let batch = decoder.decode_slots_with_pool(&captures, ThreadPool::with_threads(1));
    let batch_refs: Vec<&SlotResult> = batch.iter().collect();
    if digest(&batch_refs) == pass_digest(report) {
        Ok(())
    } else {
        Err("station output differs from decode_slots_with_pool on the same captures".into())
    }
}
