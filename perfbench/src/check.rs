//! Output checkers, computed apart from the program: payload matching
//! against the generator's transmitted frames, and classification of the
//! free-running station's cuts against generator truth.

/// Why a transmitted frame was not delivered. Discriminants index
/// [`FailClass::ALL`] and per-class counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailClass {
    /// Lost in a slot of four or more colliding users: the density knee.
    Knee,
    /// Lost while partly overlapping another unslotted frame.
    Overlap,
    /// Lost after the free-running station cut it before its floor window.
    CutEarly,
    /// Any other loss. A correct program shows none on these workloads.
    Other,
}

impl FailClass {
    /// Every class, in report order.
    pub const ALL: [FailClass; 4] = [
        FailClass::Knee,
        FailClass::Overlap,
        FailClass::CutEarly,
        FailClass::Other,
    ];

    /// Stable lowercase name used in report lines.
    pub fn tag(self) -> &'static str {
        match self {
            FailClass::Knee => "knee",
            FailClass::Overlap => "overlap",
            FailClass::CutEarly => "cut_early",
            FailClass::Other => "other",
        }
    }
}

/// One CRC-ok user the program delivered.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Group the delivery came from (slot index for slotted workloads;
    /// 0 for free-running ones, where any frame of the stream may match).
    pub group: usize,
    /// The delivered payload bytes.
    pub payload: Vec<u8>,
}

/// Result of matching deliveries against transmitted frames.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchReport {
    /// Per transmitted frame: delivered with its exact payload.
    pub delivered: Vec<bool>,
    /// CRC-ok deliveries whose payload no frame of their group carried.
    pub false_ok: usize,
    /// Deliveries of a frame that was already delivered (counted once in
    /// `delivered`).
    pub duplicates: usize,
}

impl MatchReport {
    /// Frames delivered with their exact payload.
    pub fn delivered_count(&self) -> usize {
        self.delivered.iter().filter(|&&d| d).count()
    }
}

/// Matches `deliveries` against transmitted `frames` (payload and group
/// per frame). A delivery matches a frame of its own group with an equal
/// payload; a frame matched twice counts once and the second is a
/// duplicate; a delivery matching no frame is a false CRC-ok.
pub fn match_deliveries(frames: &[(usize, &[u8])], deliveries: &[Delivery]) -> MatchReport {
    let mut report = MatchReport {
        delivered: vec![false; frames.len()],
        ..MatchReport::default()
    };
    for d in deliveries {
        let hit = frames
            .iter()
            .position(|&(g, p)| g == d.group && p == d.payload.as_slice());
        match hit {
            Some(i) if report.delivered[i] => report.duplicates += 1,
            Some(i) => report.delivered[i] = true,
            None => report.false_ok += 1,
        }
    }
    report
}

/// Where a free-running cut landed relative to the arrival's floor window
/// (the symbol window containing the true frame start, which the decoder's
/// timing acquisition needs as its slot start).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutTiming {
    /// Before the floor window.
    Early,
    /// At the floor window.
    OnTime,
    /// After the floor window.
    Late,
}

/// Classifies a cut at `slot_start` for a frame truly starting at
/// `true_start`, with `n` samples per symbol window.
pub fn classify_cut(slot_start: u64, true_start: u64, n: u64) -> CutTiming {
    let floor = true_start / n * n;
    match slot_start.cmp(&floor) {
        std::cmp::Ordering::Less => CutTiming::Early,
        std::cmp::Ordering::Equal => CutTiming::OnTime,
        std::cmp::Ordering::Greater => CutTiming::Late,
    }
}

/// The cuts (indices into `cut_starts`) within one window of the floor
/// window of a frame truly starting at `true_start`.
pub fn cuts_near(cut_starts: &[u64], true_start: u64, n: u64) -> Vec<usize> {
    let floor = true_start / n * n;
    cut_starts
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s.abs_diff(floor) <= n)
        .map(|(i, _)| i)
        .collect()
}

/// Assigns a lost frame its failure class. `in_knee_slot`: the frame was
/// one of four or more users in its slot; `overlapped`: it partly
/// overlaps another unslotted frame; `cut`: how the free-running station
/// cut it (None for slotted workloads).
pub fn fail_class(in_knee_slot: bool, overlapped: bool, cut: Option<CutTiming>) -> FailClass {
    if in_knee_slot {
        FailClass::Knee
    } else if overlapped {
        FailClass::Overlap
    } else if cut == Some(CutTiming::Early) {
        FailClass::CutEarly
    } else {
        FailClass::Other
    }
}
