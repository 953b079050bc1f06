//! Benchmark of the replicated counter service.
//!
//! ```text
//! perfbench --workload <durable-write|lease-read|sim-failover> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through its public API, checks every output
//! against oracles kept apart from the program, and prints, as the last
//! line of standard output, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A human-readable summary goes to
//! standard error. See README.md for the workloads and metrics.

mod live;
mod oracle;
mod sim;
mod spans;
mod stats;

use stats::{median, Samples};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics: (name, unit). Every workload prints every one.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("commit_tps", "1/s"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("failover_ms", "ms"),
    ("heap_mib", "MiB"),
];

/// Per-layer metrics: (name, unit). A metric of a layer a workload does
/// not run reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("store.fsyncs_per_commit", "count"),
    ("store.records_per_fsync", "count"),
    ("store.bytes_per_commit", "B"),
    ("store.append_us_p50", "us"),
    ("store.fsync_us_p50", "us"),
    ("store.records_replayed", "count"),
    ("runtime.read_handoff_us", "us"),
    ("runtime.inflight_p50", "count"),
    ("runtime.mailbox_drops", "count"),
    ("runtime.mailbox_rejections", "count"),
    ("core.msgs_per_commit", "count"),
    ("core.bytes_per_commit", "B"),
    ("core.prepares_waited_ratio", "ratio"),
    ("core.force_wait_ticks_p50", "ticks"),
    ("core.retransmissions_per_commit", "count"),
    ("core.view_change_attempts_per_failover", "count"),
    ("core.view_change_msgs_per_failover", "count"),
    ("core.snapshots_per_1k_commits", "count"),
    ("core.step_us.call", "us"),
    ("core.step_us.call-reply", "us"),
    ("core.step_us.prepare", "us"),
    ("core.step_us.prepare-ok", "us"),
    ("core.step_us.commit", "us"),
    ("core.step_us.commit-done", "us"),
    ("core.step_us.buffer-send", "us"),
    ("core.step_us.buffer-ack", "us"),
    ("core.step_us.im-alive", "us"),
    ("core.step_us.view-change", "us"),
    ("core.step_us.chunk", "us"),
    ("core.step_us.timer", "us"),
    ("core.step_us.other", "us"),
    ("lease.fast_path_ratio", "ratio"),
    ("lease.serve_us_p50", "us"),
    ("lease.rejected", "count"),
    ("lease.renewals_per_s", "1/s"),
    ("net.frames_per_commit", "count"),
    ("net.coalesced_per_frame", "ratio"),
    ("net.reconnects_per_failover", "count"),
    ("net.queue_drops", "count"),
    ("snap.chunks_per_rejoin", "count"),
    ("snap.chunk_retries", "count"),
    ("snap.installs", "count"),
    ("sim.steps_per_commit", "count"),
    ("sim.step_us_p50", "us"),
    ("sim.commit_p50_ticks", "ticks"),
    ("sim.commit_p99_ticks", "ticks"),
    ("sim.failover_ticks", "ticks"),
    ("sim.rejoin_ticks", "ticks"),
    ("span.cluster_submit_self_ms", "ms"),
    ("span.cluster_control_self_ms", "ms"),
    ("span.world_step_self_ms", "ms"),
    ("span.store_self_ms", "ms"),
    ("span.harness_self_ms", "ms"),
    ("trace.commit_tps", "1/s"),
];

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["durable-write", "lease-read", "sim-failover"];

/// What a run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (no outcome, or never committed).
    pub failed: u64,
    /// Oracle violations; any makes the run incorrect.
    pub errors: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

/// SplitMix64: the workload generator, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Rounds run, and discarded from the metrics, before measuring starts:
/// the first second of a run on the reference box is up to 15% slower
/// (clock ramp-up after idle), which would otherwise land in one run's
/// numbers and not another's.
pub const WARMUP_S: f64 = 1.0;

/// A round during which the hypervisor took more than this share of the
/// machine's CPU time (steal time in `/proc/stat`) is dropped from the
/// metrics. On the 2-vCPU reference box steal comes in bursts lasting a
/// minute or more: 0–7% per round in quiet periods, 25–30% in bursts,
/// which cut `lease-read` throughput from 31k to 12k tx/s; rounds at
/// 10–15% still doubled its write p90.
pub const MAX_STEAL: f64 = 0.08;

/// Measuring stops after this many times `--seconds` even when quiet
/// rounds do not yet cover `--seconds`, which bounds a run taken during
/// a burst. A run with no quiet round by then fails. At 6 a 20 s run
/// waits up to two minutes for a burst to pass and still ends well
/// within three minutes.
pub const MAX_STRETCH: f64 = 6.0;

/// Set-ups per round. Set-up takes tens of milliseconds, dominated by
/// the preload's sequential round trips, a few of which stall for
/// milliseconds; the median of many set-ups holds where that of one per
/// round does not. Every set-up but the last is shut down at once.
pub const SETUPS: usize = 4;

/// Stolen and total CPU time of the machine so far, in clock ticks.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    let total = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// What one round of any workload measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Duration of each of the round's set-ups, in seconds; empty when
    /// the round could not set up.
    pub setups_s: Vec<f64>,
    /// Heap in use at the end of the round's load, in MiB.
    pub heap_mib: f64,
    /// Committed-operation rates: one per window (live) or per round
    /// (simulator).
    pub rates: Vec<f64>,
    /// Write latencies, in ns.
    pub writes: Samples,
    /// Read latencies, in ns.
    pub reads: Samples,
    /// Failover times, in ms.
    pub failovers_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Oracle violations.
    pub errors: Vec<String>,
    /// Per-layer values of this round.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Run `round(index)` in whole rounds: warm-up rounds for [`WARMUP_S`],
/// then measured rounds until their quiet ones (steal at most
/// `max_steal`, [`MAX_STEAL`] in a real run) cover `seconds`, or
/// measuring has lasted [`MAX_STRETCH`] × `seconds`. Returns every
/// round with whether its timings count (quiet and measured), or an
/// error when no measured round was quiet: timings taken while the host
/// took the CPU away describe the host, not the program. A round that
/// could not set up ends the run early.
pub fn run_rounds<R>(
    seconds: f64,
    max_steal: f64,
    mut round: impl FnMut(u64) -> R,
    base: impl Fn(&R) -> &Round,
    notes: &mut Vec<String>,
) -> Result<Vec<(R, bool)>, String> {
    let start = Instant::now();
    let mut all = Vec::new();
    let mut steals = Vec::new();
    let mut measuring: Option<Instant> = None;
    let mut quiet_s = 0.0;
    loop {
        let (t, before) = (Instant::now(), cpu_ticks());
        let r = round(all.len() as u64);
        let steal = match (before, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        let fatal = base(&r).setups_s.is_empty();
        let quiet = measuring.is_some() && steal <= max_steal;
        if quiet {
            quiet_s += t.elapsed().as_secs_f64();
        }
        if measuring.is_some() {
            steals.push(format!("{:.0}%", steal * 100.0));
        }
        all.push((r, quiet));
        if fatal
            || quiet_s >= seconds
            || measuring.is_some_and(|m| m.elapsed().as_secs_f64() >= MAX_STRETCH * seconds)
        {
            break;
        }
        if measuring.is_none() && start.elapsed().as_secs_f64() >= WARMUP_S {
            measuring = Some(Instant::now());
        }
    }
    let quiet = all.iter().filter(|(_, q)| *q).count();
    notes.push(format!(
        "rounds: {} warm-up, {} measured, {quiet} quiet covering {quiet_s:.1} s; \
         steal per measured round: {}",
        all.len() - steals.len(),
        steals.len(),
        steals.join(" ")
    ));
    let fatal = all.last().is_some_and(|(r, _)| base(r).setups_s.is_empty());
    if quiet == 0 && !fatal {
        return Err(format!(
            "no measured round was quiet (host CPU steal above {:.0}% in every round: {}); \
             its timings would describe the host, not the program",
            max_steal * 100.0,
            steals.join(" ")
        ));
    }
    Ok(all)
}

/// Fold the rounds of a run into an [`Outcome`]: operation counts and
/// oracle errors over every round, end-to-end metrics and per-layer
/// medians over the rounds whose timings count. Memory is not a timing:
/// `heap_mib` is the median over every round, warm-up included.
pub fn summarize<'a>(
    rounds: impl IntoIterator<Item = (&'a Round, bool)>,
    notes: Vec<String>,
) -> Outcome {
    let mut o = Outcome { notes, ..Outcome::default() };
    let (mut writes, mut reads) = (Samples::default(), Samples::default());
    let (mut setups, mut rates, mut failovers, mut heap) = (vec![], vec![], vec![], vec![]);
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counted = 0;
    for (r, counts) in rounds {
        heap.push(r.heap_mib);
        o.attempted += r.attempted;
        o.failed += r.failed;
        o.errors.extend(r.errors.iter().cloned());
        if !counts {
            continue;
        }
        counted += 1;
        setups.extend(&r.setups_s);
        rates.extend(&r.rates);
        writes.extend(&r.writes);
        reads.extend(&r.reads);
        failovers.extend(&r.failovers_ms);
        for (k, v) in &r.layers {
            layers.entry(k).or_default().push(*v);
        }
    }
    let e = &mut o.e2e;
    e.insert("setup_s", median(&setups).unwrap_or(0.0));
    e.insert("commit_tps", median(&rates).unwrap_or(0.0));
    e.insert("write_p50_us", writes.pct(0.5) as f64 / 1e3);
    e.insert("write_p90_us", writes.pct(0.9) as f64 / 1e3);
    e.insert("read_p50_us", reads.pct(0.5) as f64 / 1e3);
    e.insert("read_p90_us", reads.pct(0.9) as f64 / 1e3);
    e.insert("failover_ms", median(&failovers).unwrap_or(0.0));
    e.insert("heap_mib", median(&heap).unwrap_or(0.0));
    for (k, v) in layers {
        o.layers.insert(k, median(&v).unwrap_or(0.0));
    }
    o.notes.push(format!("{counted} rounds counted, {} rate samples", rates.len()));
    o.notes.push(format!("writes: {}", writes.describe("ns")));
    o.notes.push(format!("reads: {}", reads.describe("ns")));
    o.notes.push(format!(
        "set-ups: {} samples, median {:.4} s, range {:.4}–{:.4} s",
        setups.len(),
        median(&setups).unwrap_or(0.0),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    ));
    o.notes.push(format!("failovers (ms): {failovers:.2?}"));
    o.notes.push(format!("heap in use per round (MiB): {heap:.2?}"));
    o
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match map.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Heap in use, in MiB: the bytes glibc's allocator has handed out and
/// not taken back, over every arena, mmapped blocks included
/// (`mallinfo2`). Unlike the resident set it does not count memory the
/// allocator keeps for reuse, which on `lease-read` jumped by 3 MiB in a
/// quarter of the runs as the allocator opened another arena or not.
pub fn heap_mib() -> f64 {
    #[repr(C)]
    struct MallInfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: `mallinfo2` (glibc 2.33 and later, the allocator Rust's
    // `System` uses on Linux) takes no arguments, reads the allocator's
    // statistics under its own locks and returns a plain struct by value.
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Run one workload with the given plan size and steal limit.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    max_steal: f64,
    tmp: &Path,
    spans: Option<&spans::Spans>,
) -> Result<Outcome, String> {
    let plan = live::Plan { seconds, max_steal, scale };
    match workload {
        "durable-write" => live::run(live::Kind::DurableWrite, &plan, seed, tmp, spans),
        "lease-read" => live::run(live::Kind::LeaseRead, &plan, seed, tmp, spans),
        _ => sim::run(&plan, seed, spans),
    }
}

fn span_layers(spans: &spans::Spans, o: &mut Outcome) {
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, (_, _, self_ns)) in spans.by_name() {
        let key = match name {
            "cluster.submit" => "span.cluster_submit_self_ms",
            "cluster.start" | "cluster.crash" | "cluster.shutdown" => {
                "span.cluster_control_self_ms"
            }
            "world.step" | "world.crash" => "span.world_step_self_ms",
            "store.persist" | "store.flush" => "span.store_self_ms",
            _ => "span.harness_self_ms",
        };
        *totals.entry(key).or_default() += self_ns as f64 / 1e6;
    }
    o.layers.extend(totals);
}

fn json_metrics(list: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Scratch space (WAL directories, traces) stays inside the working
    // directory the benchmark is run from.
    let tmp = PathBuf::from(".bench_tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let spans = args.trace.then(spans::Spans::new);
    let t0 = Instant::now();
    let run =
        run_workload(&args.workload, args.seed, args.seconds, 1.0, MAX_STEAL, &tmp, spans.as_ref());
    let mut o = match run {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&tmp);
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    };
    for (name, _) in END_TO_END {
        let v = o.e2e.get(name).copied().unwrap_or(0.0);
        if !(v.is_finite() && v > 0.0) {
            o.errors.push(format!("end-to-end metric {name} was not measured"));
        }
    }
    if let Some(spans) = &spans {
        span_layers(spans, &mut o);
        if let Some(&tps) = o.e2e.get("commit_tps") {
            o.layers.insert("trace.commit_tps", tps);
        }
        let out = PathBuf::from(".bench_out");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let path = out.join(format!("{stem}.spans.jsonl"));
        let written = std::fs::create_dir_all(&out).and_then(|()| spans.write_jsonl(&path));
        match written {
            Ok(()) => {
                let (kept, dropped) = spans.counts();
                eprintln!("spans: {kept} written to {} ({dropped} past the cap)", path.display());
            }
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        let layers_path = out.join(format!("{stem}.layers.json"));
        if let Err(e) = std::fs::write(&layers_path, json_metrics(&PER_LAYER, &o.layers) + "\n") {
            eprintln!("perfbench: writing {}: {e}", layers_path.display());
        }
    }
    let _ = std::fs::remove_dir(&tmp);

    for note in &o.notes {
        eprintln!("{note}");
    }
    for (name, unit) in END_TO_END {
        eprintln!("{name:>14} {:>14.3} {unit}", o.e2e.get(name).copied().unwrap_or(0.0));
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            eprintln!("{name:>40} {:>14.3} {unit}", o.layers.get(name).copied().unwrap_or(0.0));
        }
    }
    for e in o.errors.iter().take(20) {
        eprintln!("ERROR: {e}");
    }
    let threads = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| s.lines().find(|l| l.starts_with("Threads:")).map(str::to_owned));
    eprintln!("run took {:.2} s; {}", t0.elapsed().as_secs_f64(), threads.unwrap_or_default());
    let metrics = if args.trace {
        json_metrics(&PER_LAYER, &o.layers)
    } else {
        json_metrics(&END_TO_END, &o.e2e)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.errors.is_empty(),
        o.attempted.max(1),
        o.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload lease-read --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lease-read", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload sim-failover --seconds 1")).is_err());
        assert!(
            parse_args(&argv("--workload sim-failover --seed 1 --seconds 1 --trace 2")).is_err()
        );
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b, mut c) = (Rng::new(1), Rng::new(1), Rng::new(2));
        let xs: Vec<u64> = (0..8).map(|_| a.below(100)).collect();
        assert_eq!(xs, (0..8).map(|_| b.below(100)).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.below(100)).collect::<Vec<_>>());
    }

    #[test]
    fn a_run_without_a_quiet_round_fails() {
        let round = |_| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            Round { setups_s: vec![0.01], ..Round::default() }
        };
        let mut notes = Vec::new();
        // Steal is never negative, so no round is quiet.
        let err = run_rounds(0.05, -1.0, round, |r| r, &mut notes).unwrap_err();
        assert!(err.contains("no measured round was quiet"), "{err}");
        let ok = run_rounds(0.05, 1.0, round, |r| r, &mut notes).unwrap();
        assert!(ok.iter().any(|(_, quiet)| *quiet));
        assert!(!ok[0].1, "the warm-up round's timings never count");
    }

    /// A tiny run of every workload: it completes, its oracles pass, and
    /// it reports every end-to-end metric (traced, so the per-layer path
    /// runs too).
    #[test]
    fn smoke_every_workload() {
        let tmp = PathBuf::from(".bench_tmp_test");
        std::fs::create_dir_all(&tmp).unwrap();
        for workload in WORKLOADS {
            let spans = spans::Spans::new();
            // No steal limit: a smoke run checks the workload, not the host.
            let o = run_workload(workload, 3, 0.01, 0.02, 1.0, &tmp, Some(&spans)).expect(workload);
            assert!(o.errors.is_empty(), "{workload}: {:?}", o.errors);
            assert!(o.attempted > 0, "{workload}");
            for (name, _) in END_TO_END {
                let v = o.e2e.get(name).copied().unwrap_or(0.0);
                assert!(v > 0.0, "{workload}: {name} = {v}");
            }
            for name in o.layers.keys() {
                assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{workload}: unlisted {name}");
            }
            assert!(spans.counts().0 > 0, "{workload}: no spans recorded");
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
