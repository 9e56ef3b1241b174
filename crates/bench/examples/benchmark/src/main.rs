//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/examples/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--self-check [--runs N]] [--manifest]
//! ```
//!
//! One run measures one workload for `--seconds` seconds and prints
//! every metric by name and unit; its last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` all five run in turn. The exit
//! code is non-zero when any operation failed or any byte read back
//! differed from what was written. See the README beside this package.

mod alloc;
mod catalog;
mod host;
mod lcg;
mod oplog;
mod round;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::sync::Mutex;
use std::time::Instant;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use lcg::Lcg;
use round::{Cx, Pool, Round, POOL, POOL_STREAM};
use shadow::{probes, Shadow};
use stats::ratio;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A run never reports a median of fewer rounds than this.
const MIN_ROUNDS: usize = 3;

/// Values measured while the hypervisor gave more than this share of
/// the guest's CPU time to someone else did not measure the program.
const MAX_STEAL_SHARE: f64 = 0.02;

/// The window of a round a metric is measured in.
#[derive(Clone, Copy)]
enum Window {
    /// Set-up and the timed client phases.
    Ops,
    /// The maintenance cycle.
    Maintenance,
}

impl Window {
    fn of(metric: &str) -> Window {
        if metric == "maint_cycle_ms" {
            Window::Maintenance
        } else {
            Window::Ops
        }
    }

    fn steal_share(self, round: &Round) -> f64 {
        match self {
            Window::Ops => round.ops_steal_share,
            Window::Maintenance => round.maint_steal_share,
        }
    }
}

/// The rounds whose `window` counts: those within [`MAX_STEAL_SHARE`],
/// or — when the whole run was disturbed — the `at_least` least
/// disturbed ones.
fn undisturbed<'a>(rounds: &[&'a Round], window: Window, at_least: usize) -> Vec<&'a Round> {
    let mut by_steal = rounds.to_vec();
    by_steal.sort_by(|a, b| window.steal_share(a).total_cmp(&window.steal_share(b)));
    let clean = by_steal.iter().take_while(|r| window.steal_share(r) <= MAX_STEAL_SHARE).count();
    by_steal.truncate(clean.max(at_least.min(rounds.len())));
    by_steal
}

struct Args {
    workload: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
    runs: usize,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        self_check: false,
        runs: 1,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().position(|w| w.name == name);
                args.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-check" => args.self_check = true,
            "--runs" => {
                args.runs = value("a number")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One reported metric: the estimate, and for one made across rounds
/// its quartiles and sample count.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    detail: String,
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn new(metrics: Vec<Metric>, rounds: &[Round]) -> Outcome {
        Outcome {
            metrics,
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
        }
    }
}

fn per_round(rounds: &[&Round], name: &str, layer: bool) -> Vec<f64> {
    rounds
        .iter()
        .filter_map(|r| {
            let values = if layer { &r.layer } else { &r.values };
            values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
        })
        .collect()
}

fn median_metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let detail = if samples.len() >= 2 {
        let (q1, q3) = stats::quartiles(samples);
        format!("median of {} rounds, quartiles {q1:.6} .. {q3:.6}", samples.len())
    } else {
        format!("{} round", samples.len())
    };
    Metric { name, unit, value: stats::median(samples), detail }
}

/// A time or a rate: the mean of the quietest quarter of the rounds.
fn quiet_metric(m: &catalog::EndToEnd, samples: &[f64]) -> Metric {
    let detail = format!(
        "best {} of {} rounds, their median {:.6}",
        samples.len().div_ceil(4),
        samples.len(),
        stats::median(samples)
    );
    Metric {
        name: m.name,
        unit: m.unit,
        value: stats::quiet_mean(samples, m.better == "higher"),
        detail,
    }
}

/// Run rounds of one workload until the next would overrun `seconds`.
fn run_rounds(
    workload: usize,
    seed: u64,
    seconds: f64,
    shadow: Option<&Mutex<Shadow>>,
    started: Instant,
) -> Vec<Round> {
    let pool = Pool::generate(Lcg::new(seed, POOL_STREAM), POOL);
    let epoch = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let min_rounds = if shadow.is_some() { 2 * MIN_ROUNDS - 2 } else { MIN_ROUNDS };
    loop {
        let n = rounds.len();
        if n >= min_rounds {
            let per_round = epoch.elapsed().as_secs_f64() / n as f64;
            if started.elapsed().as_secs_f64() + per_round > seconds {
                return rounds;
            }
        }
        // A traced run alternates plain and traced rounds, both on one
        // client, so that the difference between them is the tracing.
        let traced = shadow.filter(|_| n % 2 == 1);
        let cx = Cx {
            seed,
            workload,
            round: n as u64,
            clients: if shadow.is_some() { 1 } else { 2 },
            pool: &pool,
            shadow: traced,
            epoch,
        };
        if let Some(s) = traced {
            s.lock().expect("shadow lock").reset();
        }
        rounds.push(workloads::run(&cx));
    }
}

fn end_to_end(workload: usize, seed: u64, seconds: f64) -> Outcome {
    let rounds = run_rounds(workload, seed, seconds, None, Instant::now());
    let all: Vec<&Round> = rounds.iter().collect();
    let (ops, maint) = (
        undisturbed(&all, Window::Ops, MIN_ROUNDS),
        undisturbed(&all, Window::Maintenance, MIN_ROUNDS),
    );
    println!(
        "  {} rounds; within {MAX_STEAL_SHARE} steal: {} client phases, {} maintenance cycles",
        rounds.len(),
        ops.len(),
        maint.len()
    );
    let ticks: u64 = ops.iter().map(|r| r.cpu_ticks).sum();
    let mib: f64 = ops.iter().map(|r| r.mib_moved).sum();
    let metrics = END_TO_END
        .iter()
        .map(|m| match m.name {
            "cpu_us_per_mib" => Metric {
                name: m.name,
                unit: m.unit,
                value: ticks as f64 * host::TICK_US / mib,
                detail: format!("{ticks} ticks over {mib:.0} MiB in {} rounds", ops.len()),
            },
            _ => {
                let kept = match Window::of(m.name) {
                    Window::Ops => &ops,
                    Window::Maintenance => &maint,
                };
                let samples = per_round(kept, m.name, false);
                if m.is_timing() {
                    quiet_metric(m, &samples)
                } else {
                    median_metric(m.name, m.unit, &samples)
                }
            }
        })
        .collect();
    Outcome::new(metrics, &rounds)
}

fn traced(workload: usize, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let checksum = probes::checksum(seed);
    let assign_complete_2thr = probes::assign_complete_2thr();
    let shadow = Mutex::new(Shadow::new(workloads::page_size(workload)));
    let rounds = run_rounds(workload, seed, seconds, Some(&shadow), started);
    let shadow = shadow.into_inner().expect("shadow lock");
    let (with_trace, plain): (Vec<&Round>, Vec<&Round>) =
        rounds.iter().partition(|r| !r.layer.is_empty());
    // One filter for every layer metric: the client phases' steal.
    let (with_trace, plain) =
        (undisturbed(&with_trace, Window::Ops, 1), undisturbed(&plain, Window::Ops, 1));
    println!(
        "  {} rounds; client phases within {MAX_STEAL_SHARE} steal: {} traced, {} plain",
        rounds.len(),
        with_trace.len(),
        plain.len()
    );
    let dht = probes::dht(rounds[0].nodes.max(1), seed);

    // Unit costs from the replay's spans: count and total time per
    // span name, total time per layer.
    let mut by_name: HashMap<&str, (f64, f64)> = HashMap::new();
    let mut by_layer: HashMap<&str, f64> = HashMap::new();
    for span in shadow.buf.spans().iter().filter(|s| s.parent != 0) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1.0;
        entry.1 += span.duration_ns() as f64;
        *by_layer.entry(span.layer()).or_default() += span.duration_ns() as f64;
    }
    let count = |name: &str| by_name.get(name).map_or(0.0, |e| e.0);
    let total = |name: &str| by_name.get(name).map_or(0.0, |e| e.1);

    // Layer shares of an operation's CPU time. CPU per operation comes
    // from the plain rounds (the traced ones also count allocations);
    // the spans are those of the sampled operations only. `meta` spans
    // include the DHT gets their tree walks make, so `dht` is the node
    // stores alone.
    let plain_ops: u64 = plain.iter().map(|r| r.ops).sum();
    let plain_ticks: u64 = plain.iter().map(|r| r.cpu_ticks).sum();
    let cpu_ns_per_op = ratio(plain_ticks as f64 * host::TICK_US * 1e3, plain_ops as f64);
    let sampled_cpu_ns = cpu_ns_per_op * shadow.sampled_ops as f64;
    let share = |layer: &str| ratio(by_layer.get(layer).copied().unwrap_or(0.0), sampled_cpu_ns);
    let (types_share, version_share) = (share("types"), share("version"));
    let (dht_share, meta_share) = (share("dht"), share("meta"));

    // Wall-clock view of the same spans: the part of the sampled root
    // spans their (rebased) children leave uncovered.
    let mut children: HashMap<u64, Vec<trace::Span>> = HashMap::new();
    for span in shadow.buf.spans().iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push(*span);
    }
    let (mut self_ns, mut root_ns) = (0.0, 0.0);
    for root in shadow.buf.spans().iter().filter(|s| s.parent == 0) {
        if let Some(kids) = children.get(&root.id) {
            self_ns += trace::self_time(root, kids) as f64;
            root_ns += root.duration_ns() as f64;
        }
    }

    // Tracing overhead: how much slower the median operation is in
    // the traced rounds, updates and reads weighted equally.
    let p50 = |rounds: &[&Round], name: &str| stats::median(&per_round(rounds, name, false));
    let slower = |name: &str| ratio(p50(&with_trace, name), p50(&plain, name));
    let overhead = (slower("write_p50_us") + slower("read_p50_us")) / 2.0 - 1.0;
    let computed: Vec<(&str, f64, String)> = vec![
        (
            "types.checksum_gib_per_s",
            checksum.gib_per_s_64k,
            "probe: 32 MiB as 64 KiB pages".into(),
        ),
        ("types.checksum_4k_ns", checksum.ns_4k, "probe: 16 MiB as 4 KiB pages".into()),
        ("types.cpu_share", types_share, "replayed checksum time / CPU time, sampled ops".into()),
        (
            "dht.get_ns",
            dht.get_ns,
            format!("probe: 200000 gets on a table of {} nodes", rounds[0].nodes),
        ),
        ("dht.get_ns_2thr", dht.get_ns_2thr, "probe: the same on two threads".into()),
        (
            "dht.put_new_ns",
            ratio(total("dht.put_new"), count("dht.put_new")),
            format!("mean of {} spans", count("dht.put_new")),
        ),
        ("dht.cpu_share", dht_share, "put_new spans (gets are inside meta's spans)".into()),
        (
            "meta.build_ns_per_node",
            ratio(total("meta.build_meta"), shadow.sampled_nodes as f64),
            format!("{} spans, {} nodes", count("meta.build_meta"), shadow.sampled_nodes),
        ),
        (
            "meta.read_meta_ns_per_leaf",
            ratio(total("meta.read_meta"), shadow.sampled_leaves as f64),
            format!("{} spans, {} leaves", count("meta.read_meta"), shadow.sampled_leaves),
        ),
        (
            "meta.cpu_share",
            meta_share,
            "build_meta + read_meta spans, their DHT gets included".into(),
        ),
        (
            "version.assign_complete_ns",
            ratio(total("version.assign") + total("version.complete"), count("version.assign")),
            format!("mean of {} span pairs", count("version.assign")),
        ),
        (
            "version.assign_complete_ns_2thr",
            assign_complete_2thr,
            "probe: two threads, one blob".into(),
        ),
        (
            "version.latest_view_ns",
            ratio(total("version.latest_view"), count("version.latest_view")),
            format!("mean of {} spans", count("version.latest_view")),
        ),
        ("version.cpu_share", version_share, "assign + complete + latest_view spans".into()),
        (
            "core.unattributed_share",
            1.0 - types_share - version_share - dht_share - meta_share,
            "1 - the four layer shares: orchestration, locks, provider maps, dispatch".into(),
        ),
        (
            "core.self_time_share",
            ratio(self_ns, root_ns),
            "sampled root spans' wall time not covered by their child spans".into(),
        ),
        (
            "core.cpu_us_per_op",
            cpu_ns_per_op / 1e3,
            format!("{plain_ticks} ticks over {plain_ops} ops, plain rounds"),
        ),
        (
            "trace.overhead_share",
            overhead,
            "mean of write and read p50, traced rounds / plain rounds - 1".into(),
        ),
        ("trace.spans", shadow.buf.spans().len() as f64, "spans recorded".into()),
    ];

    let metrics = PER_LAYER
        .iter()
        .map(|m| match computed.iter().find(|(name, ..)| *name == m.name) {
            Some((_, value, detail)) => {
                Metric { name: m.name, unit: m.unit, value: *value, detail: detail.clone() }
            }
            None => median_metric(m.name, m.unit, &per_round(&with_trace, m.name, true)),
        })
        .collect();
    match shadow.buf.write_jsonl(WORKLOADS[workload].name) {
        Ok(path) => println!("trace: {} spans in {}", shadow.buf.spans().len(), path.display()),
        Err(e) => eprintln!("trace not written: {e}"),
    }
    Outcome::new(metrics, &rounds)
}

/// The result line the driver reads.
fn result_json(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, value, m.unit)
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

fn run_one(workload: usize, args: &Args) -> bool {
    println!(
        "workload {} ({})",
        WORKLOADS[workload].name,
        if args.trace { "traced run" } else { "end-to-end run" }
    );
    let outcome = if args.trace {
        traced(workload, args.seed, args.seconds)
    } else {
        end_to_end(workload, args.seed, args.seconds)
    };
    for m in &outcome.metrics {
        println!("  {:<40} {:>18.6} {:<7} {}", m.name, m.value, m.unit, m.detail);
    }
    println!("  operations attempted {}, failed {}", outcome.attempted, outcome.failed);
    println!("{}", result_json(&outcome));
    outcome.failed == 0
}

/// The value of `name` in a result line this program printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The workloads a command line selects: the one named, or all five.
fn selected(args: &Args) -> impl Iterator<Item = usize> + '_ {
    (0..WORKLOADS.len()).filter(|w| args.workload.is_none_or(|only| only == *w))
}

/// Two sets of `runs` end-to-end runs per workload, each run a fresh
/// process with its own seed — what the driver does to accept the
/// benchmark. Per metric: both medians, by how much the second is
/// worse, the quartile spread of each set, and the bound.
fn self_check(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for workload in selected(args).map(|w| &WORKLOADS[w]) {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (set, lines) in sets.iter_mut().enumerate() {
            for run in 0..args.runs {
                let seed = args.seed + (set * args.runs + run) as u64;
                let out = Command::new(&exe)
                    .args(["--workload", workload.name, "--trace", "0"])
                    .args(["--seed", &seed.to_string(), "--seconds", &args.seconds.to_string()])
                    .output()
                    .expect("spawn a benchmark run");
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or_default().to_string();
                if !out.status.success() || !line.contains("\"correct\": true") {
                    eprintln!(
                        "{} seed {seed}: run failed\n{}",
                        workload.name,
                        String::from_utf8_lossy(&out.stderr)
                    );
                    ok = false;
                }
                lines.push(line);
            }
        }
        println!(
            "{} (seeds {}..{}, {} runs a set)",
            workload.name,
            args.seed,
            args.seed + 2 * args.runs as u64 - 1,
            args.runs
        );
        println!(
            "  {:<28} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
            "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound"
        );
        for m in &END_TO_END {
            let values = |set: &[String]| {
                set.iter().filter_map(|l| metric_in(l, m.name)).collect::<Vec<f64>>()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() != args.runs || b.len() != args.runs {
                println!("  {:<28} missing from a result line", m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = if m.better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
            let (sa, sb) =
                if args.runs >= 2 { (stats::spread(&a), stats::spread(&b)) } else { (0.0, 0.0) };
            let steady = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let verdict = if worse <= m.bound && steady { "" } else { "  <-- outside the bound" };
            ok &= verdict.is_empty();
            println!(
                "  {:<28} {ma:>14.6} {mb:>14.6} {worse:>+8.3} {sa:>8.3} {sb:>8.3} {:>6.2}{verdict}",
                m.name, m.bound
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", catalog::manifest());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return ExitCode::from(2);
    }
    if host::cpus() < 2 {
        eprintln!(
            "refusing to measure on {} CPU: two client threads need at least 2",
            host::cpus()
        );
        return ExitCode::from(2);
    }
    println!("{}", host::provenance(args.seed, args.seconds));
    let ok = if args.self_check {
        self_check(&args)
    } else {
        // Every selected workload runs, also after one has failed.
        let mut ok = true;
        for w in selected(&args) {
            ok &= run_one(w, &args);
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
