// Propagated, inspected, and explicitly waived results are all clean.

pub fn flush_counters() -> Result<u64, String> {
    Ok(0)
}

pub fn tick() -> Result<(), String> {
    flush_counters()?;
    Ok(())
}

pub fn tock() -> u64 {
    if flush_counters().is_ok() {
        return 1;
    }
    // tcp-lint: allow(swallowed-error) -- counter flush is advisory during shutdown.
    flush_counters();
    0
}
