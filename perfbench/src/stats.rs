//! Order statistics used by every report line.

/// First quartile, median and third quartile of `values`, computed the way
/// Python's `statistics.quantiles(values, n=4)` (default "exclusive"
/// method) and `statistics.median` compute them, so figures printed here
/// compare directly with an outside analysis of the same numbers.
/// Returns all-NaN for an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (data[0], data[0], data[0]),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
            };
            (q(1), median_sorted(&data), q(3))
        }
    }
}

/// Median of `values` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    median_sorted(&data)
}

fn median_sorted(data: &[f64]) -> f64 {
    let l = data.len();
    if l == 0 {
        return f64::NAN;
    }
    if l % 2 == 1 {
        data[l / 2]
    } else {
        0.5 * (data[l / 2 - 1] + data[l / 2])
    }
}

/// Median and quartiles of a labelled sample, as one report line.
pub fn spread_line(label: &str, unit: &str, values: &[f64]) -> String {
    let (q1, med, q3) = quartiles(values);
    format!(
        "{label}: median {med:.6} {unit} (q1 {q1:.6}, q3 {q3:.6}, n={})",
        values.len()
    )
}
