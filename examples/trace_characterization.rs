//! Characterise a benchmark's L1 miss stream the way Section 3 does.
//!
//! ```text
//! cargo run --release --example trace_characterization [benchmark] [ops]
//! ```
//!
//! Profiles a workload's miss stream through the paper's 32 KB
//! direct-mapped L1 with `characterize` (the pass behind `all`'s
//! `fig02`–`fig07` and `fig15`) and reports the tag/address/sequence
//! statistics of Figures 2–7 and 15, plus the intuition they support: how
//! many address sequences a single tag sequence covers.

use tcp_repro::experiments::characterize::characterize;
use tcp_repro::workloads::suite;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "art".to_owned());
    let ops: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3_000_000);
    let bench = match suite().into_iter().find(|b| b.name == name) {
        Some(b) => b,
        None => {
            eprintln!("unknown benchmark {name}; choices:");
            for b in suite() {
                eprintln!("  {}", b.name);
            }
            std::process::exit(1);
        }
    };

    let p = characterize(&bench, ops);

    println!("benchmark: {} ({ops} ops)", bench.name);
    println!("  {}\n", bench.description);
    println!(
        "tags      (Fig 2): {} unique, recurring {:.0}x each",
        p.unique_tags, p.tag_recurrence
    );
    println!(
        "addresses (Fig 3): {} unique, recurring {:.1}x each  ({}x more addresses than tags)",
        p.unique_addresses,
        p.address_recurrence,
        p.unique_addresses / p.unique_tags.max(1)
    );
    println!(
        "spread    (Fig 4): each tag in {:.0} of 1024 sets, {:.0} recurrences within a set",
        p.sets_per_tag, p.tag_recurrence_within_set
    );
    println!(
        "sequences (Fig 5): {:.2}% of the random upper limit (tags^3)",
        100.0 * p.fraction_of_upper_limit
    );
    println!(
        "sequences (Fig 6): {} unique 3-tag sequences, recurring {:.1}x each",
        p.unique_sequences, p.sequence_recurrence
    );
    println!(
        "sequences (Fig 7): each in {:.1} sets, {:.1} recurrences within a set",
        p.sets_per_sequence, p.sequence_recurrence_within_set
    );
    println!(
        "strided  (Fig 15): {:.1}% of sequences are strided",
        100.0 * p.strided_fraction
    );
    println!(
        "\nTCP's premise: one tag sequence stands in for ~{:.0} address sequences\n(sets it recurs in), which is why an 8 KB tag-indexed PHT competes with\nmegabyte-scale address-correlation tables.",
        p.sets_per_sequence
    );
}
