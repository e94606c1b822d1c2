//! Fixture: narrowings that are safe, explicit, or waived. Must lint
//! clean.

pub fn masked(cycle: u64) -> u32 {
    // A masked expression is an explicit, reviewable truncation.
    (cycle & 0xffff_ffff) as u32
}

pub fn widening(tag: u32) -> u64 {
    u64::from(tag)
}

pub fn ring_slot(cycle: u64) -> usize {
    // usize is not a narrowing target on 64-bit hosts.
    (cycle as usize) & 1023
}

pub fn waived(cycle: u64) -> u32 {
    // tcp-lint: allow(lossy-cycle-cast) — cycle counters in this model fit u32
    cycle as u32
}

pub fn not_quantities(stage: u64, percentage: u64) -> u32 {
    // "stage" and "percentage" contain "tag" but are not tag quantities.
    (stage as u32).wrapping_add(percentage as u32)
}
