//! Fixture self-tests of the benchmark's own checkers. Every run executes
//! them before measuring (a benchmark whose judge is broken must not
//! print a result), and `cargo test` runs them as one unit test.

use crate::check::{self, CutTiming, Delivery, FailClass};
use crate::ladder;
use crate::stats::{median, quartiles};

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn delivery(group: usize, payload: &[u8]) -> Delivery {
    Delivery {
        group,
        payload: payload.to_vec(),
    }
}

fn matcher() -> Result<(), String> {
    let (a, b, c): (&[u8], &[u8], &[u8]) = (b"frame-aa", b"frame-bb", b"frame-cc");
    let frames = [(0, a), (0, b), (1, c)];

    // A CRC-ok frame with a wrong payload is an error, not a delivery.
    let r = check::match_deliveries(&frames, &[delivery(0, b"frame-zz")]);
    ensure(
        r.false_ok == 1 && r.duplicates == 0 && r.delivered_count() == 0,
        "wrong payload not flagged",
    )?;

    // The right payload in the wrong slot is an error too.
    let r = check::match_deliveries(&frames, &[delivery(1, a)]);
    ensure(
        r.false_ok == 1 && !r.delivered[0],
        "cross-slot payload accepted",
    )?;

    // A frame delivered twice counts once; the second is a duplicate.
    let r = check::match_deliveries(&frames, &[delivery(0, a), delivery(0, a)]);
    ensure(
        r.delivered == vec![true, false, false],
        "duplicate counted twice",
    )?;
    ensure(
        r.duplicates == 1 && r.false_ok == 0,
        "duplicate not flagged",
    )?;

    // A missing frame is failed, and nothing else is wrong.
    let r = check::match_deliveries(&frames, &[delivery(0, a), delivery(1, c)]);
    ensure(
        r.delivered == vec![true, false, true],
        "missing frame not failed",
    )?;
    ensure(
        r.false_ok == 0 && r.duplicates == 0 && r.delivered_count() == 2,
        "clean delivery misjudged",
    )
}

fn cuts() -> Result<(), String> {
    let n = 256;
    // A frame starting 1000 samples in has its floor window at 768.
    ensure(
        check::classify_cut(512, 1000, n) == CutTiming::Early,
        "early cut",
    )?;
    ensure(
        check::classify_cut(768, 1000, n) == CutTiming::OnTime,
        "on-time cut",
    )?;
    ensure(
        check::classify_cut(1024, 1000, n) == CutTiming::Late,
        "late cut",
    )?;
    ensure(
        check::classify_cut(768, 768, n) == CutTiming::OnTime,
        "aligned start",
    )?;
    ensure(
        check::cuts_near(&[256, 512, 768, 1024, 2000], 1000, n) == vec![1, 2, 3],
        "cuts within one window of the floor window",
    )?;
    ensure(
        check::fail_class(false, false, Some(CutTiming::Early)) == FailClass::CutEarly,
        "early-cut loss class",
    )?;
    ensure(
        check::fail_class(false, true, Some(CutTiming::Early)) == FailClass::Overlap,
        "overlap takes precedence over cut timing",
    )?;
    ensure(
        check::fail_class(true, false, None) == FailClass::Knee,
        "knee class",
    )?;
    ensure(
        check::fail_class(false, false, Some(CutTiming::OnTime)) == FailClass::Other,
        "unexplained loss",
    )
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

fn order_stats() -> Result<(), String> {
    // Reference values from Python's statistics.quantiles(n=4) / median.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, m, q3) = quartiles(&ten);
    ensure(
        close(q1, 2.75) && close(m, 5.5) && close(q3, 8.25),
        "quartiles of 1..10",
    )?;
    let (q1, m, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    ensure(
        close(q1, 1.5) && close(m, 3.0) && close(q3, 4.5),
        "quartiles of 1..5",
    )?;
    let (q1, m, q3) = quartiles(&[2.0, 1.0]);
    ensure(
        close(q1, 0.75) && close(m, 1.5) && close(q3, 2.25),
        "quartiles of two",
    )?;
    ensure(close(median(&[3.0, 1.0, 2.0]), 2.0), "odd median")?;
    ensure(close(median(&[7.0]), 7.0), "single median")?;
    ensure(median(&[]).is_nan(), "empty median")
}

fn references() -> Result<(), String> {
    use choir_dsp::complex::c64;
    // DFT of a unit impulse is flat; of a constant, an impulse at DC.
    let mut impulse = vec![c64(0.0, 0.0); 8];
    impulse[0] = c64(1.0, 0.0);
    let flat = ladder::naive_dft(&impulse);
    ensure(
        flat.iter().all(|z| close(z.re, 1.0) && z.im.abs() < 1e-12),
        "DFT of impulse",
    )?;
    let dc = ladder::naive_dft(&[c64(1.0, 0.0); 8]);
    ensure(
        close(dc[0].re, 8.0) && dc[1..].iter().all(|z| z.abs() < 1e-12),
        "DFT of constant",
    )?;
    // ‖Gx − b‖ is zero for the exact solution and not for a wrong one.
    let g = [c64(2.0, 0.0), c64(0.0, 1.0), c64(0.0, -1.0), c64(2.0, 0.0)];
    let b = [c64(2.0, 1.0), c64(2.0, -1.0)];
    let x = [c64(1.0, 0.0), c64(1.0, 0.0)];
    ensure(
        ladder::solve_residual(2, &g, &x, &b) < 1e-12,
        "exact solve residual",
    )?;
    ensure(
        ladder::solve_residual(2, &g, &b, &b) > 0.1,
        "wrong solve residual",
    )
}

/// Runs every fixture; the first failure names the broken checker.
pub fn run() -> Result<(), String> {
    matcher()?;
    cuts()?;
    order_stats()?;
    references()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_pass() {
        if let Err(e) = super::run() {
            panic!("self-test failed: {e}");
        }
    }
}
