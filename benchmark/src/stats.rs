//! Order statistics over timing samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `v` (sorted in place).
/// Returns 0 for an empty sample, which the result line then shows as a
/// metric that was never measured.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The host flips between a fast and a slow state for seconds at a time,
/// so a whole-run percentile is owned by whichever stalls the run caught.
/// Cutting the run into equal windows and taking the median of the
/// per-window quantile keeps one stall inside one window.
pub fn windowed_quantile(samples: &[(f64, f64)], window_s: f64, q: f64) -> (f64, usize) {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at_s, value) in samples {
        let w = (at_s / window_s) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(value);
    }
    let fullest = windows.iter().map(Vec::len).max().unwrap_or(0);
    // A trailing sliver of a window would put a handful of samples on
    // equal footing with the full ones.
    let mut per_window: Vec<f64> = windows
        .iter_mut()
        .filter(|w| w.len() * 2 >= fullest && !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    let n = per_window.len();
    (median(&mut per_window), n)
}
