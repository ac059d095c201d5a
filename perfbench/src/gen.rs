//! Input generation for the three station workloads.
//!
//! Generation is never timed. Every round is a pure function of the
//! workload and `--seed`; the program under test only sees the IQ stream.
//!
//! Which frames a decoder loses in a collision, and how long it takes,
//! depends on the exact draw (offsets, noise, payload bits): two-user SF8
//! slots drawn from the oscillator model at 18–22 dB lost frames in 4 of
//! 400 draws. So every slot and frame segment a station decodes is drawn
//! once from a fixed catalogue (builder seeds 0 and 1 for each slotted
//! cell, [`CATALOGUE_SEED`] for the unslotted segments), and the run seed
//! decides the arrangement around it: slot order, idle gaps, their noise
//! and the noise-only slots. The share of failed frames and the decode
//! work per round are then the same for every seed and run length.

use choir_channel::async_scenario::AsyncScenarioBuilder;
use choir_channel::impairments::{HardwareProfile, OscillatorModel};
use choir_channel::noise::awgn;
use choir_channel::scenario::ScenarioBuilder;
use choir_dsp::complex::C64;
use choir_station::{SlotSchedule, StationConfig};
use lora_phy::params::{PhyParams, SpreadingFactor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Payload bytes of every frame.
pub const PAYLOAD_LEN: usize = 8;

/// Samples per `push_chunk` call, as in the `station_soak` bench.
pub const CHUNK: usize = 2048;

/// Seed of the unslotted frame catalogue.
const CATALOGUE_SEED: u64 = 0x00C4_0117;

/// One cell of the slot ladder: users per slot and spreading factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// One SF8 user.
    K1,
    /// Two SF8 users.
    K2,
    /// Four SF8 users.
    K4,
    /// Eight SF8 users.
    K8,
    /// One SF10 user.
    Sf10K1,
    /// Two SF10 users.
    Sf10K2,
    /// Noise only, drawn from the run seed.
    Noise,
}

impl Cell {
    /// Every decodable cell, in ladder order.
    pub const LADDER: [Cell; 6] = [
        Cell::K1,
        Cell::K2,
        Cell::K4,
        Cell::K8,
        Cell::Sf10K1,
        Cell::Sf10K2,
    ];

    /// Name used in metric names (`core.slot_ms.<tag>`).
    pub fn tag(self) -> &'static str {
        match self {
            Cell::K1 => "k1",
            Cell::K2 => "k2",
            Cell::K4 => "k4",
            Cell::K8 => "k8",
            Cell::Sf10K1 => "sf10_k1",
            Cell::Sf10K2 => "sf10_k2",
            Cell::Noise => "noise",
        }
    }

    /// The cell's spreading factor.
    pub fn params(self) -> PhyParams {
        match self {
            Cell::Sf10K1 | Cell::Sf10K2 => sf10(),
            _ => PhyParams::default(),
        }
    }

    /// Per-user SNRs (dB): a 3 dB/user ladder from 20 dB for the SF8
    /// collisions, far-client SNRs (the 0–5 dB Low regime of Fig. 8(a–c))
    /// at SF10.
    fn snrs(self) -> Vec<f64> {
        let ladder = |top: f64, k: usize| (0..k).map(|i| top - 3.0 * i as f64).collect();
        match self {
            Cell::K1 => ladder(12.0, 1),
            Cell::K2 => ladder(20.0, 2),
            Cell::K4 => ladder(20.0, 4),
            Cell::K8 => ladder(20.0, 8),
            Cell::Sf10K1 => ladder(2.5, 1),
            Cell::Sf10K2 => ladder(4.0, 2),
            Cell::Noise => Vec::new(),
        }
    }
}

/// SF10/125 kHz/CR4/8.
fn sf10() -> PhyParams {
    PhyParams {
        sf: SpreadingFactor::Sf10,
        ..PhyParams::default()
    }
}

/// One transmitted frame with its generator truth.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Transmitted payload.
    pub payload: Vec<u8>,
    /// Absolute stream sample of the first preamble sample (nominal: a
    /// slotted user's timing offset comes on top).
    pub start: u64,
    /// Slot index for slotted workloads, 0 for free-running ones.
    pub group: usize,
    /// One of four or more users in its slot.
    pub knee: bool,
    /// Partly overlaps another unslotted frame.
    pub overlapped: bool,
}

/// One scheduled slot with its generator truth.
#[derive(Clone, Debug)]
pub struct SlotTruth {
    /// Explicit slot boundary (absolute sample).
    pub start: u64,
    /// Ladder cell the slot was drawn from.
    pub cell: Cell,
    /// The station's capture span `[a, b)` for this slot.
    pub span: (usize, usize),
}

/// One round of a station workload: the stream and everything the
/// checkers need to judge the station's output on it.
#[derive(Clone, Debug)]
pub struct StationRound {
    /// PHY parameters of the stream.
    pub params: PhyParams,
    /// The IQ stream, unit-power noise included.
    pub stream: Vec<C64>,
    /// Slots, for beacon-slotted rounds (empty when free-running).
    pub slots: Vec<SlotTruth>,
    /// Every transmitted frame.
    pub frames: Vec<Frame>,
    /// Free-running (no schedule) when true.
    pub free_running: bool,
}

impl StationRound {
    /// Seconds of air the stream covers.
    pub fn air_s(&self) -> f64 {
        self.stream.len() as f64 / self.params.bw.hz()
    }

    /// Station configuration for this round: defaults for 8-byte
    /// payloads.
    pub fn config(&self) -> StationConfig {
        StationConfig::known_len(self.params, PAYLOAD_LEN)
    }

    /// The slot schedule the station runs.
    pub fn schedule(&self) -> SlotSchedule {
        if self.free_running {
            SlotSchedule::FreeRunning
        } else {
            SlotSchedule::Explicit(self.slots.iter().map(|s| s.start).collect())
        }
    }

    /// Samples per symbol window.
    pub fn n(&self) -> u64 {
        self.params.samples_per_symbol() as u64
    }
}

fn seeded(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn push_noise(stream: &mut Vec<C64>, rng: &mut StdRng, samples: usize) {
    stream.extend(awgn(rng, samples, 1.0));
}

/// Splits `total` into `parts` seeded shares of at least `min` each. The
/// idle gaps of a round are drawn this way, so the seed moves frames
/// around without changing how much air a round covers.
fn partition(rng: &mut StdRng, parts: usize, min: u64, total: u64) -> Vec<u64> {
    let spare = total - parts as u64 * min;
    let mut cuts: Vec<u64> = (1..parts).map(|_| rng.gen_range(0..=spare)).collect();
    cuts.sort_unstable();
    let mut prev = 0;
    let mut shares = Vec::with_capacity(parts);
    for cut in cuts.into_iter().chain(std::iter::once(spare)) {
        shares.push(min + cut - prev);
        prev = cut;
    }
    shares
}

/// Renders one slot's capture (lead-in, frame span and tail exactly as
/// the station cuts it) and its transmitted payloads: catalogue entry
/// `index` of a decodable cell, or seeded noise.
fn render_slot(cell: Cell, index: u64, rng: &mut StdRng) -> (Vec<C64>, Vec<Vec<u8>>) {
    let params = cell.params();
    let capture_len = StationConfig::known_len(params, PAYLOAD_LEN).capture_len();
    if cell == Cell::Noise {
        return (awgn(rng, capture_len, 1.0), Vec::new());
    }
    let sc = ScenarioBuilder::new(params)
        .snrs_db(&cell.snrs())
        .payload_len(PAYLOAD_LEN)
        .seed(index)
        .build();
    assert_eq!(
        sc.samples.len(),
        capture_len,
        "scenario span must equal the station's capture span"
    );
    let payloads = sc.users.iter().map(|u| u.payload.clone()).collect();
    (sc.samples, payloads)
}

/// A beacon-slotted round over `cells` (shuffled by the seed), separated
/// by seeded noise gaps of at least one symbol, three on average.
fn slotted_round(params: PhyParams, cells: &[Cell], seed: u64) -> StationRound {
    let mut rng = seeded(seed, 0x5107);
    let n = params.samples_per_symbol();
    let lead = StationConfig::known_len(params, PAYLOAD_LEN).lead_symbols * n;
    let mut order: Vec<Cell> = cells.to_vec();
    order.shuffle(&mut rng);
    let mut stream = Vec::new();
    let mut slots = Vec::new();
    let mut frames = Vec::new();
    let mut catalogue_index = [0u64; 7];
    let gaps = partition(&mut rng, order.len() + 1, 1, 3 * (order.len() as u64 + 1));
    for (cell, gap) in order.into_iter().zip(&gaps) {
        push_noise(&mut stream, &mut rng, *gap as usize * n);
        let idx = &mut catalogue_index[cell as usize];
        let (capture, payloads) = render_slot(cell, *idx, &mut rng);
        *idx += 1;
        let a = stream.len();
        let start = (a + lead) as u64;
        for payload in payloads {
            frames.push(Frame {
                payload,
                start,
                group: slots.len(),
                knee: matches!(cell, Cell::K4 | Cell::K8),
                overlapped: false,
            });
        }
        stream.extend_from_slice(&capture);
        slots.push(SlotTruth {
            start,
            cell,
            span: (a, stream.len()),
        });
    }
    push_noise(&mut stream, &mut rng, gaps[gaps.len() - 1] as usize * n);
    StationRound {
        params,
        stream,
        slots,
        frames,
        free_running: false,
    }
}

/// Round of `slotted_dense`: k ∈ {1, 2, 4, 8} at SF8, two slots each,
/// plus two noise-only slots. With as many noise slots as slots per k,
/// the median slot latency is that of the two k = 2 slots.
pub fn slotted_dense(seed: u64) -> StationRound {
    use Cell::*;
    slotted_round(
        PhyParams::default(),
        &[K1, K1, K2, K2, K4, K4, K8, K8, Noise, Noise],
        seed,
    )
}

/// Round of `slotted_sf10`: k ∈ {1, 2} at SF10, two slots each, plus two
/// noise-only slots.
pub fn slotted_sf10(seed: u64) -> StationRound {
    use Cell::*;
    slotted_round(
        sf10(),
        &[Sf10K1, Sf10K1, Sf10K2, Sf10K2, Noise, Noise],
        seed,
    )
}

/// The first catalogue entry of a decodable `cell`: the capture as the
/// station cuts it, its relative slot start, and its payloads.
pub fn ladder_slot(cell: Cell) -> (Vec<C64>, usize, Vec<Vec<u8>>) {
    let params = cell.params();
    let lead = StationConfig::known_len(params, PAYLOAD_LEN).lead_symbols;
    let (capture, payloads) = render_slot(cell, 0, &mut seeded(0, 0));
    (capture, lead * params.samples_per_symbol(), payloads)
}

/// Unslotted catalogue: lone frames.
const LONE_FRAMES: usize = 12;
/// Unslotted catalogue: pairs whose second frame partly overlaps the first.
const OVERLAP_PAIRS: usize = 4;
/// Noise symbols before the first and after the last frame of a segment.
const SEGMENT_PAD_SYMBOLS: u64 = 8;
/// Mean idle symbols between segments (seeded, at least 400), which puts
/// the channel occupancy at about 5 %.
const IDLE_SYMBOLS: u64 = 1000;

/// One self-contained stretch of the unslotted stream: fixed noise around
/// one lone frame or one overlapping pair, a whole number of symbol
/// windows long so that its frames keep their window phase wherever the
/// seed places the segment.
struct Segment {
    samples: Vec<C64>,
    /// (start within the segment, payload, overlapped)
    frames: Vec<(u64, Vec<u8>, bool)>,
}

fn catalogue_segments(params: PhyParams) -> Vec<Segment> {
    let n = params.samples_per_symbol() as u64;
    let osc = OscillatorModel::default();
    let mut rng = StdRng::seed_from_u64(CATALOGUE_SEED);
    let frame_len = lora_phy::frame::packet_symbols(&params, &[0; PAYLOAD_LEN]).len() as u64 * n;
    let mut segments = Vec::new();
    let mut frame_id = 0u8;
    for cell in 0..LONE_FRAMES + OVERLAP_PAIRS {
        let pair = cell >= LONE_FRAMES;
        let snr = if pair {
            rng.gen_range(18.0..24.0)
        } else {
            rng.gen_range(12.0..24.0)
        };
        let mut starts = vec![SEGMENT_PAD_SYMBOLS * n + rng.gen_range(0..n)];
        if pair {
            let lag = rng.gen_range(10..30u64) * n + rng.gen_range(0..n);
            starts.push(starts[0] + lag);
        }
        let mut builder = AsyncScenarioBuilder::new(params).seed(CATALOGUE_SEED ^ cell as u64);
        let mut frames = Vec::new();
        for &start in &starts {
            let mut payload = vec![0xC4, frame_id];
            payload.extend((2..PAYLOAD_LEN).map(|_| rng.gen::<u8>()));
            frame_id += 1;
            let ppm = osc.sample_ppm(&mut rng);
            let profile = HardwareProfile {
                timing_offset_symbols: 0.0,
                ..osc.sample_profile(ppm, &mut rng)
            };
            builder = builder.arrival_with_profile(start, snr, &payload, profile);
            frames.push((start, payload, pair));
        }
        let end = starts[starts.len() - 1] + frame_len + SEGMENT_PAD_SYMBOLS * n;
        let len = end.div_ceil(n) * n;
        let mut samples = builder
            .tail_symbols(SEGMENT_PAD_SYMBOLS as usize + 1)
            .build()
            .samples;
        samples.truncate(len as usize);
        assert_eq!(samples.len() as u64, len, "segment shorter than planned");
        segments.push(Segment { samples, frames });
    }
    segments
}

/// Round of `unslotted_sparse`: the catalogue's segments in seeded order,
/// separated by seeded idle noise.
pub fn unslotted_sparse(seed: u64) -> StationRound {
    let params = PhyParams::default();
    let mut rng = seeded(seed, 0xA5C);
    let mut segments = catalogue_segments(params);
    segments.shuffle(&mut rng);
    free_running_round(params, segments, &mut rng)
}

fn free_running_round(params: PhyParams, segments: Vec<Segment>, rng: &mut StdRng) -> StationRound {
    let n = params.samples_per_symbol() as u64;
    let mut stream = Vec::new();
    let mut frames = Vec::new();
    let parts = segments.len() + 1;
    let idles = partition(rng, parts, 400, IDLE_SYMBOLS * parts as u64);
    for (seg, idle) in segments.into_iter().zip(&idles) {
        push_noise(&mut stream, rng, (idle * n) as usize);
        let base = stream.len() as u64;
        for (start, payload, overlapped) in seg.frames {
            frames.push(Frame {
                payload,
                start: base + start,
                group: 0,
                knee: false,
                overlapped,
            });
        }
        stream.extend_from_slice(&seg.samples);
    }
    push_noise(&mut stream, rng, (idles[parts - 1] * n) as usize);
    StationRound {
        params,
        stream,
        slots: Vec::new(),
        frames,
        free_running: true,
    }
}

/// A one-frame round of the workload's kind, used as the warm-up pass
/// that set-up time covers: one single-user slot for the slotted
/// workloads, one lone-frame segment for the unslotted one.
pub fn warmup(workload: &str, seed: u64) -> StationRound {
    match workload {
        "slotted_sf10" => slotted_round(sf10(), &[Cell::Sf10K1], seed),
        "unslotted_sparse" => {
            let params = PhyParams::default();
            let mut rng = seeded(seed, 0x3A3);
            let mut segments = catalogue_segments(params);
            segments.truncate(1);
            free_running_round(params, segments, &mut rng)
        }
        _ => slotted_round(PhyParams::default(), &[Cell::K1], seed),
    }
}
