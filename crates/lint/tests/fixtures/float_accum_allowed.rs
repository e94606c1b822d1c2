//! Fixture: integer accumulation in cycle loops, float accumulation
//! outside them, and one waived site. Must lint clean.

pub fn integer_accum(n_cycles: u64) -> f64 {
    let mut total = 0u64;
    let mut cycle = 0u64;
    while cycle < n_cycles {
        total += 2;
        cycle += 1;
    }
    total as f64
}

pub fn non_cycle_loop(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    for v in values {
        sum += v;
    }
    sum
}

pub fn recycled_loop(recycled: &[u64]) -> f64 {
    // "recycled" contains "cycle" but is not a cycle-indexed header.
    let mut acc = 0.0;
    for _x in recycled {
        acc += 0.5;
    }
    acc
}

pub fn waived(n_cycles: u64) -> f64 {
    let mut acc = 0.0;
    let mut cycle = 0u64;
    while cycle < n_cycles {
        // tcp-lint: allow(float-accum-in-hot-loop) — bounded loop, rounding error analyzed
        acc += 0.5;
        cycle += 1;
    }
    acc
}
