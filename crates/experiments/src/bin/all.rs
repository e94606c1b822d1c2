//! The experiments binary: every table and figure of the paper, and this
//! repository's extensions, from one command.
//!
//! ```text
//! all                      # Table 1 and Figures 1-15 in sequence
//! all <selector> [BENCH]   # one artefact
//! ```
//!
//! With no argument, all IPC figures share one [`SweepEngine`], so
//! simulation points that recur across figures (the no-prefetch baseline
//! in Figures 1, 11, and 14; TCP-8K in Figures 11, 12, and 14; TCP-8M in
//! Figures 11 and 12) simulate once and are served from memo thereafter
//! — the numbers are bit-identical to the selectors', which run the very
//! same jobs on fresh engines.
//!
//! A selector prints one artefact in full, with its charts: `table1`,
//! `fig01`–`fig07`, `fig09`, `fig11`–`fig15`, `sec6` (Section 6
//! extensions), `ablate` (machine-parameter sweeps) or `inspect [BENCH]`
//! (a one-benchmark deep dive, `art` by default). An unknown selector or
//! an extra argument prints the usage line and exits 2.
//!
//! `TCP_REPRO_OPS` sets the measured micro-ops per benchmark ([`Scale`]);
//! a value that is not a positive integer exits 2 before anything runs.
//! Tables print to stdout and are written as CSV under
//! `target/experiments/`.

use std::process::exit;

use tcp_analysis::geometric_mean;
use tcp_baselines::{Dbcp, DbcpConfig, StrideConfig, StridePrefetcher};
use tcp_cache::{NullPrefetcher, Prefetcher};
use tcp_core::{PhtConfig, StrideAugmentedTcp, Tcp, TcpConfig};
use tcp_experiments::characterize::{characterize, characterize_suite, TraceProfile};
use tcp_experiments::plot::BarChart;
use tcp_experiments::report::{count, f, pct, Table};
use tcp_experiments::scale::Scale;
use tcp_experiments::sweep::SweepEngine;
use tcp_experiments::{ablate, fig01, fig09, fig11, fig12, fig13, fig14, sec6, table1};
use tcp_mem::{SetIndex, Tag};
use tcp_sim::{ipc_improvement, run_benchmark, SystemConfig};
use tcp_workloads::{suite, Benchmark};

const USAGE: &str = "usage: all [table1|fig01|fig02|fig03|fig04|fig05|fig06|fig07|fig09|fig11|fig12|fig13|fig14|fig15|sec6|ablate|inspect [BENCH]]";

/// One column of a characterisation table: its header in the figure's
/// own table, its header in the combined table, and its cell.
type Column = (&'static str, &'static str, fn(&TraceProfile) -> String);

/// Figures 2–7 and 15, each a projection of the suite's miss-stream
/// profiles: (selector, title, columns). Listed in the column order of
/// the combined table, which puts Figure 6 before Figure 5.
const CHARACTERISATION: [(&str, &str, &[Column]); 7] = [
    (
        "fig02",
        "Figure 2: unique tags (top) and mean recurrences per tag (bottom)",
        &[
            ("unique tags", "tags", |p| count(p.unique_tags)),
            ("recurrences/tag", "rec/tag", |p| f(p.tag_recurrence, 1)),
        ],
    ),
    (
        "fig03",
        "Figure 3: unique addresses (top) and mean recurrences per address (bottom)",
        &[
            ("unique addresses", "addrs", |p| count(p.unique_addresses)),
            ("recurrences/address", "rec/addr", |p| {
                f(p.address_recurrence, 1)
            }),
        ],
    ),
    (
        "fig04",
        "Figure 4: mean sets per tag (top) and recurrences within a set (bottom)",
        &[
            ("sets/tag", "sets/tag", |p| f(p.sets_per_tag, 1)),
            ("recurrences within set", "rec-in-set", |p| {
                f(p.tag_recurrence_within_set, 1)
            }),
        ],
    ),
    (
        "fig06",
        "Figure 6: unique 3-tag sequences (top) and mean recurrences (bottom)",
        &[
            ("unique sequences", "seqs", |p| count(p.unique_sequences)),
            ("recurrences/sequence", "rec/seq", |p| {
                f(p.sequence_recurrence, 1)
            }),
        ],
    ),
    (
        "fig05",
        "Figure 5: unique 3-tag sequences / possible 3-tag sequences",
        &[("% of upper limit", "%limit", |p| {
            pct(100.0 * p.fraction_of_upper_limit)
        })],
    ),
    (
        "fig07",
        "Figure 7: mean sets per 3-tag sequence (top) and recurrences within a set (bottom)",
        &[
            ("sets/sequence", "sets/seq", |p| f(p.sets_per_sequence, 1)),
            ("recurrences within set", "seq-rec-in-set", |p| {
                f(p.sequence_recurrence_within_set, 1)
            }),
        ],
    ),
    (
        "fig15",
        "Figure 15: percentage of strided 3-tag sequences",
        &[("% strided sequences", "%strided", |p| {
            pct(100.0 * p.strided_fraction)
        })],
    ),
];

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("all: {e}");
        exit(2)
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        [] => everything(scale),
        ["table1"] => emit(&table1::render(&SystemConfig::table1()), "table1"),
        ["fig01"] => show_fig01(scale),
        ["fig09"] => {
            for (name, cfg) in [
                ("TCP-8K PHT", PhtConfig::pht_8k()),
                ("TCP-8M PHT", PhtConfig::pht_8m()),
            ] {
                print_walkthrough(&format!("Figure 9 indexing walkthrough: {name}"), &cfg);
            }
        }
        ["fig11"] => show_fig11(scale),
        ["fig12"] => {
            let fig = fig12::run_with(&SweepEngine::new(), &suite(), scale.ops);
            let top = "Figure 12 (top): L2 access categories, TCP-8K";
            emit(&fig12::render(top, &fig.tcp_8k), "fig12_tcp8k");
            println!();
            let bottom = "Figure 12 (bottom): L2 access categories, TCP-8M";
            emit(&fig12::render(bottom, &fig.tcp_8m), "fig12_tcp8m");
        }
        ["fig13"] => show_fig13(&SweepEngine::new(), &suite(), scale),
        ["fig14"] => {
            let rows = fig14::run_with(&SweepEngine::new(), &suite(), scale.ops);
            emit(&fig14::render(&rows), "fig14");
        }
        ["sec6"] => {
            let rows = sec6::run_with(&SweepEngine::new(), &suite(), scale.ops);
            emit(&sec6::render(&rows), "sec6");
        }
        ["ablate"] => show_ablations(scale),
        ["inspect"] => inspect("art", scale.ops),
        ["inspect", bench] => inspect(bench, scale.ops),
        [selector] => {
            let Some((_, title, columns)) = CHARACTERISATION.iter().find(|c| c.0 == selector)
            else {
                usage()
            };
            let profiles = characterize_suite(&suite(), scale.ops);
            let own = columns.iter().map(|c| (c.0, c.2));
            emit(&profile_table(title, own, &profiles), selector);
            if selector == "fig04" {
                print_section3_summary(&profiles);
            }
        }
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// Prints `t` and writes it as `<csv>.csv`.
fn emit(t: &Table, csv: &str) {
    print!("{}", t.render());
    t.save_csv(csv);
}

/// Table 1 and Figures 1–15 in sequence on one shared engine, each
/// block followed by a blank line, then the engine's dedup footer.
fn everything(scale: Scale) {
    let benches = suite();
    let engine = SweepEngine::new();

    println!("{}", table1::render(&SystemConfig::table1()).render());

    let f1 = fig01::run_with(&engine, &benches, scale.ops);
    emit(&fig01::render(&f1), "fig01");
    println!();

    let profiles = characterize_suite(&benches, scale.ops);
    let combined = CHARACTERISATION
        .iter()
        .flat_map(|c| c.2)
        .map(|c| (c.1, c.2));
    let title = "Figures 2-7 & 15: miss-stream characterisation";
    emit(
        &profile_table(title, combined, &profiles),
        "characterization",
    );
    println!();

    print_walkthrough(
        "Figure 9 indexing walkthrough (TCP-8K)",
        &PhtConfig::pht_8k(),
    );

    let f11 = fig11::run_with(&engine, &benches, scale.ops);
    emit(&fig11::render(&f11), "fig11");
    println!();

    let f12 = fig12::run_with(&engine, &benches, scale.ops);
    let top = fig12::render("Figure 12 (top): TCP-8K", &f12.tcp_8k);
    emit(&top, "fig12_tcp8k");
    println!();
    let bottom = fig12::render("Figure 12 (bottom): TCP-8M", &f12.tcp_8m);
    emit(&bottom, "fig12_tcp8m");
    println!();

    show_fig13(&engine, &benches, scale);
    println!();

    let f14 = fig14::run_with(&engine, &benches, scale.ops);
    emit(&fig14::render(&f14), "fig14");
    println!();

    let stats = engine.stats();
    println!(
        "sweep engine: {} simulations requested, {} executed, {} served from memo",
        stats.requested,
        stats.executed,
        stats.memo_hits()
    );
}

/// The suite's miss-stream profiles projected onto `columns` (header,
/// cell), one row per benchmark.
fn profile_table(
    title: &str,
    columns: impl IntoIterator<Item = (&'static str, fn(&TraceProfile) -> String)>,
    profiles: &[TraceProfile],
) -> Table {
    let columns: Vec<_> = columns.into_iter().collect();
    let headers: Vec<&str> = std::iter::once("benchmark")
        .chain(columns.iter().map(|c| c.0))
        .collect();
    let mut t = Table::new(title, &headers);
    for p in profiles {
        let cells = columns.iter().map(|c| (c.1)(p));
        t.row(std::iter::once(p.benchmark.clone()).chain(cells).collect());
    }
    t
}

/// Figure 4's companion: the Section 3 geometric-mean summary.
fn print_section3_summary(profiles: &[TraceProfile]) {
    let tags: Vec<f64> = profiles.iter().map(|p| p.unique_tags as f64).collect();
    let spread: Vec<f64> = profiles.iter().map(|p| p.sets_per_tag.max(1e-9)).collect();
    let recur: Vec<f64> = profiles
        .iter()
        .map(|p| p.tag_recurrence_within_set.max(1e-9))
        .collect();
    println!(
        "\nSection 3 summary (paper: 576 tags, 609 sets, 94 recurrences):\n  geomean unique tags {:.0}, geomean sets/tag {:.0}, geomean recurrences/set {:.0}",
        geometric_mean(&tags),
        geometric_mean(&spread),
        geometric_mean(&recur)
    );
}

/// Figure 9's indexing walkthrough of one tag sequence under `cfg`,
/// followed by a blank line.
fn print_walkthrough(title: &str, cfg: &PhtConfig) {
    println!("== {title} ==");
    for step in fig09::walkthrough(
        cfg,
        &[Tag::new(0x00F3), Tag::new(0x0A41)],
        SetIndex::new(0x2A7),
    ) {
        println!("  {:<28} {}", step.label, step.value);
    }
    println!();
}

/// Figure 1 with its bar chart.
fn show_fig01(scale: Scale) {
    let rows = fig01::run_with(&SweepEngine::new(), &suite(), scale.ops);
    emit(&fig01::render(&rows), "fig01");
    let mut chart = BarChart::new("ideal-L2 IPC improvement (%)", 50);
    for r in &rows {
        chart.bar(&r.benchmark, r.improvement_pct);
    }
    print!("\n{}", chart.render());
}

/// Figure 11 with one bar chart per prefetcher and the paper's geomeans.
fn show_fig11(scale: Scale) {
    let fig = fig11::run_with(&SweepEngine::new(), &suite(), scale.ops);
    emit(&fig11::render(&fig), "fig11");
    for (name, pick) in [("DBCP-2M", 0usize), ("TCP-8K", 1), ("TCP-8M", 2)] {
        let mut chart = BarChart::new(&format!("{name} IPC improvement (%)"), 50);
        for r in &fig.rows {
            chart.bar(&r.benchmark, [r.dbcp_pct, r.tcp8k_pct, r.tcp8m_pct][pick]);
        }
        print!("\n{}", chart.render());
    }
    println!(
        "\npaper geomeans: DBCP-2M ~7%, TCP-8K ~14%, TCP-8M ~15%  |  measured: DBCP-2M {:.1}%, TCP-8K {:.1}%, TCP-8M {:.1}%",
        fig.geomean_dbcp_pct, fig.geomean_tcp8k_pct, fig.geomean_tcp8m_pct
    );
}

/// Both panels of Figure 13, separated by a blank line. The sweep runs
/// 18 whole-suite configurations, so it uses the lighter sweep budget.
fn show_fig13(engine: &SweepEngine, benches: &[Benchmark], scale: Scale) {
    let fig = fig13::run_with(engine, benches, scale.sweep_ops());
    emit(&fig13::render_sizes(&fig), "fig13_sizes");
    println!();
    emit(&fig13::render_index_bits(&fig), "fig13_index_bits");
}

/// The machine-parameter sweeps, one table per knob.
fn show_ablations(scale: Scale) {
    // A representative subset: one streaming, one chase, one random.
    let benches: Vec<Benchmark> = suite()
        .into_iter()
        .filter(|b| ["swim", "ammp", "twolf"].contains(&b.name))
        .collect();
    for sweep in ablate::run_with(&SweepEngine::new(), &benches, scale.sweep_ops()) {
        let csv = format!("ablate_{}", sweep.knob.replace([' ', '/'], "_"));
        emit(&ablate::render(&sweep), &csv);
        println!();
    }
}

/// Deep dive on one benchmark: Section 3 profile, recurrence histogram,
/// and a full prefetcher comparison. Exits 1 on an unknown benchmark.
fn inspect(name: &str, ops: u64) {
    let Some(bench) = suite().into_iter().find(|b| b.name == name) else {
        eprintln!("unknown benchmark {name}");
        exit(1)
    };

    println!("== {} ==\n{}\n", bench.name, bench.description);

    let p = characterize(&bench, ops);
    println!(
        "misses {}  tags {}  addrs {}  seqs {}",
        p.misses, p.unique_tags, p.unique_addresses, p.unique_sequences
    );
    println!(
        "sets/tag {:.1}  rec-in-set {:.1}  sets/seq {:.1}  %strided {:.1}%\n",
        p.sets_per_tag,
        p.tag_recurrence_within_set,
        p.sets_per_sequence,
        100.0 * p.strided_fraction
    );

    // Recurrence histogram: how skewed is tag reuse?
    println!(
        "tag recurrence distribution (log2 buckets):\n{}",
        p.tag_recurrence_histogram.render(40)
    );

    let machine = SystemConfig::table1();
    let base = run_benchmark(&bench, ops, &machine, Box::new(NullPrefetcher));
    println!(
        "prefetcher comparison ({ops} ops, base IPC {:.4}):",
        base.ipc
    );
    let engines: Vec<Box<dyn Prefetcher>> = vec![
        Box::new(StridePrefetcher::new(StrideConfig::default())),
        Box::new(Dbcp::new(DbcpConfig::dbcp_2m())),
        Box::new(Tcp::new(TcpConfig::tcp_8k())),
        Box::new(Tcp::new(TcpConfig::tcp_8m())),
        Box::new(StrideAugmentedTcp::new(TcpConfig::tcp_8k())),
    ];
    for e in engines {
        let name = e.name().to_owned();
        let r = run_benchmark(&bench, ops, &machine, e);
        println!(
            "  {:<16} {:+7.1}%   coverage {:>4.0}%  extra {:>4.0}%",
            name,
            ipc_improvement(&base, &r),
            100.0 * r.stats.l2_breakdown.coverage(),
            100.0 * r.stats.l2_breakdown.normalized().2,
        );
    }
}
