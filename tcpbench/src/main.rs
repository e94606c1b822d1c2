//! In-process half of the repository benchmark; `run.py` drives it.
//!
//! ```text
//! tcpbench serve-setup      --seed N --dir D
//! tcpbench serve-reference  --dir D
//! tcpbench serve-trace      --dir D --untraced-wall S
//! tcpbench stream-setup     --seed N --dir D
//! tcpbench stream-run       --dir D [--miss-delay-ns N]
//! tcpbench stream-reference --dir D
//! tcpbench stream-trace     --dir D --untraced-wall S --untraced-mux S [--miss-delay-ns N]
//! tcpbench figures-ops      --ops N
//! tcpbench figures-trace    --ops N --untraced-wall S --digests FILE
//! ```
//!
//! Every command writes its result as JSON on the last line of stdout.
//! The `*-trace` commands print the per-layer metrics of one workload;
//! `--miss-delay-ns` wraps the stream tenants' engines in a busy-wait per
//! `on_miss`, for the injected-slowdown canary only.

mod figures;
mod layers;
mod serve;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use tcp_json::Json;

/// Parsed command line: the command and its `--flag value` pairs.
pub struct Args {
    cmd: String,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (cmd, rest) = argv.split_first().ok_or("missing command")?;
        let mut flags = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(name.to_owned(), value.clone());
        }
        Ok(Args {
            cmd: cmd.clone(),
            flags,
        })
    }

    pub fn dir(&self) -> Result<PathBuf, String> {
        self.flags
            .get("dir")
            .map(PathBuf::from)
            .ok_or_else(|| "--dir is required".to_owned())
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
}

/// One metric for the JSON result.
pub fn metric(out: &mut BTreeMap<String, Json>, name: &str, value: f64) {
    out.insert(name.to_owned(), Json::Num(value));
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Prints a trace command's result: its metrics plus the number of
/// self-checks attempted and failed.
pub fn print_result(metrics: BTreeMap<String, Json>, attempted: usize, failures: &[String]) {
    for f in failures {
        eprintln!("tcpbench: check failed: {f}");
    }
    let mut obj = BTreeMap::new();
    obj.insert("attempted".to_owned(), Json::Num(attempted as f64));
    obj.insert("failed".to_owned(), Json::Num(failures.len() as f64));
    obj.insert("metrics".to_owned(), Json::Obj(metrics));
    println!("{}", tcp_json::to_string(&Json::Obj(obj)));
}

/// Process CPU seconds (user + system, every thread, live or exited),
/// from `/proc/self/stat` in clock ticks of 1/100 s.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Worker threads for in-process sweeps: the machine's parallelism,
/// capped at 2 so every run fits the same small box.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn run(args: &Args) -> Result<(), String> {
    match args.cmd.as_str() {
        "serve-setup" => serve::setup(args),
        "serve-reference" => serve::reference(args),
        "serve-trace" => serve::trace(args),
        "stream-setup" => stream::setup(args),
        "stream-run" => stream::run(args),
        "stream-reference" => stream::reference(args),
        "stream-trace" => stream::trace(args),
        "figures-ops" => figures::ops(args),
        "figures-trace" => figures::trace(args),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tcpbench: {msg}");
            ExitCode::from(2)
        }
    }
}
