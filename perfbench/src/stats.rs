//! Order statistics over timing samples.

/// Median of `samples` (sorts them); 0 for none.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        0.5 * (samples[mid - 1] + samples[mid])
    }
}

/// Median wall time of `f` in microseconds over at least `min_reps`
/// calls, continuing until about `budget_s` seconds have passed.
pub fn unit_cost_us(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t = std::time::Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if samples.len() >= 10_000 {
            break;
        }
    }
    median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
