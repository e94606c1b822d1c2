//! Watch a prefetcher train: feed a simulation session in chunks and
//! print the coverage/IPC curve as the pattern history table warms up.
//!
//! ```text
//! cargo run --release --example warmup_curve [benchmark] [ops]
//! ```
//!
//! This is the paper's warm-up story made visible: TCP-8K's shared PHT
//! reaches useful coverage within the first sweep of a streaming
//! benchmark, while TCP-8M must re-learn each pattern in every cache set.

use tcp_repro::cache::Prefetcher;
use tcp_repro::core::{Tcp, TcpConfig};
use tcp_repro::sim::{Session, SystemConfig, Watchdog};
use tcp_repro::workloads::suite;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "art".to_owned());
    let ops: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3_000_000);
    let Some(bench) = suite().into_iter().find(|b| b.name == name) else {
        eprintln!("unknown benchmark {name}");
        std::process::exit(1);
    };
    let machine = SystemConfig::table1();
    let chunk = (ops / 12).max(1) as usize;

    println!(
        "benchmark: {} — training curves over {ops} ops\n",
        bench.name
    );
    for cfg in [TcpConfig::tcp_8k(), TcpConfig::tcp_8m()] {
        let tcp = Tcp::new(cfg);
        let label = tcp.name().to_owned();
        let mut sim = Session::new(bench.name, &machine, Box::new(tcp), 0, Watchdog::default())
            .expect("Table 1 is a valid machine");
        let mut stream = bench.generator(ops);
        println!("{label}:");
        println!(
            "  {:>10}  {:>8}  {:>9}  {:>10}",
            "ops", "IPC", "coverage", "L2 misses"
        );
        while sim.ops() < ops {
            if let Err(e) = sim.feed(stream.by_ref().take(chunk)) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            let s = sim.stats();
            println!(
                "  {:>10}  {:>8.4}  {:>8.1}%  {:>10}",
                sim.ops(),
                sim.ipc(),
                100.0 * s.l2_breakdown.coverage(),
                s.l2_demand_misses
            );
        }
        println!();
    }
}
