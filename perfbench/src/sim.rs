//! The `sim-failover` workload: the deterministic simulator under a
//! seeded open-loop schedule, with a primary crash after each segment of
//! load.
//!
//! A round builds a durable 3-replica counter group plus a client cohort
//! under the library-default `CohortConfig` and preloads the working
//! set. It then runs [`CYCLES`] cycles. Each cycle schedules
//! [`SEG_TXNS`] transactions, one every [`INTERVAL`] ticks, and lets them
//! finish. Then it crashes the current primary and times the first
//! transaction submitted after the crash. The crashed cohort recovers
//! [`RECOVER_AFTER`] ticks later, and the cycle ends when it has
//! rejoined. The last crash of a round destroys the disk, so the
//! rejoiner fetches a chunked snapshot. Aborted transactions are
//! resubmitted, as a client would.
//!
//! Writes are single-counter increments and never cross a failover: the
//! crash waits for the segment to finish, and the transaction timed
//! across it is a read. Two faults found with this workload (see the
//! `FOUND:` lines in CHANGES.md) make a write that crosses a failover,
//! and two-counter increments after one, sometimes apply an increment
//! no committed transaction accounts for. Either would fail the
//! final-counter oracle on some seeds and not others.

use crate::live::{
    nonheartbeat, ratio, ForceWaits, Plan, CLIENT, CLIENTS, CLIENT_MID, SERVER, SERVERS,
};
use crate::spans::{Recorder, Span, Spans};
use crate::stats::{median, Samples};
use crate::{Outcome, Rng, Round};
use std::collections::BTreeMap;
use std::time::Instant;
use vsr_app::counter;
use vsr_core::cohort::{CallOp, Status, TxnOutcome};
use vsr_core::module::NullModule;
use vsr_core::types::GroupId;
use vsr_obs::{SharedRecorder, TraceKind};
use vsr_sim::world::{World, WorldBuilder};
use vsr_store::FsyncPolicy;

/// Counters owned by each logical client.
pub const SIM_SLICE: u64 = 512;
/// Counters per preload transaction.
const PRELOAD_BATCH: usize = 32;
/// Load segments (each followed by a crash) per round.
pub const CYCLES: u64 = 3;
/// Transactions scheduled per segment.
pub const SEG_TXNS: u64 = 1_000;
/// Ticks between scheduled transactions (open loop).
pub const INTERVAL: u64 = 2;
/// Ticks a crashed cohort stays down.
pub const RECOVER_AFTER: u64 = 300;
/// Ticks one phase of a cycle may take before the round gives up.
const DRAIN_TICKS: u64 = 20_000;
/// Wall-clock bound on one round's load phase: a wedged world ends the
/// round (its unfinished transactions count as failed) instead of the run.
const ROUND_WALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(30);
/// Ticks a client waits before resubmitting an aborted transaction.
const RETRY_TICKS: u64 = 10;

/// One logical client transaction (resubmissions included).
struct Op {
    group: GroupId,
    ops: Vec<CallOp>,
    read: Option<u64>,
    /// The failover probe: timed across a crash, not a load sample.
    probe: bool,
    due: u64,
    submitted_wall: Option<Instant>,
    /// Lowest value a read may return: the counter's acknowledged count
    /// when the read was submitted.
    read_lo: u64,
}

/// Everything one round measured: the figures every workload has, and
/// the simulator's own.
#[derive(Default)]
struct SimRound {
    base: Round,
    /// Commit latencies of load transactions, in ticks.
    commit_ticks: Samples,
    /// Crash → probe commit, in ticks.
    failover_ticks: Vec<f64>,
    /// Wall time of `World::step` by what the step handled, in ns.
    step_ns: BTreeMap<&'static str, Samples>,
}

fn counters_of(client: u64) -> impl Iterator<Item = u64> {
    (0..SIM_SLICE).map(move |i| 1 + client * SIM_SLICE + i)
}

/// The per-layer metric a step's wall time is grouped under: the
/// message or timer the step handled.
fn step_metric(kind: &TraceKind) -> Option<&'static str> {
    match kind {
        TraceKind::Recv { msg, .. } => Some(match *msg {
            "call" => "core.step_us.call",
            "call-reply" => "core.step_us.call-reply",
            "prepare" => "core.step_us.prepare",
            "prepare-ok" => "core.step_us.prepare-ok",
            "commit" => "core.step_us.commit",
            "commit-done" => "core.step_us.commit-done",
            "buffer-send" => "core.step_us.buffer-send",
            "buffer-ack" => "core.step_us.buffer-ack",
            "im-alive" => "core.step_us.im-alive",
            "chunk" | "get-chunk" => "core.step_us.chunk",
            "invite" | "accept-normal" | "accept-crashed" | "init-view" => {
                "core.step_us.view-change"
            }
            _ => "core.step_us.other",
        }),
        TraceKind::Timer { .. } => Some("core.step_us.timer"),
        _ => None,
    }
}

fn completions(w: &World) -> u64 {
    let m = w.metrics();
    m.committed + m.aborted + m.unresolved
}

/// Step until `done` holds, at most `limit` steps.
fn step_until(w: &mut World, limit: u64, mut done: impl FnMut(&World) -> bool) -> bool {
    for _ in 0..limit {
        if done(w) {
            return true;
        }
        w.step();
    }
    done(w)
}

/// Book-keeping of one round's client transactions.
struct Driver<'a> {
    w: World,
    recorder: Option<SharedRecorder>,
    spans: Option<&'a Spans>,
    rec: Recorder<'a>,
    parent: u64,
    ops: Vec<Op>,
    inflight: BTreeMap<u64, usize>,
    next_sched: usize,
    last_done: u64,
    steps: u64,
    remaining: u64,
    force: ForceWaits,
    acked: BTreeMap<u64, u64>,
    issued: BTreeMap<u64, u64>,
    r: Round,
    commit_ticks: Samples,
    step_ns: BTreeMap<&'static str, Samples>,
}

impl Driver<'_> {
    /// Schedule a transaction due at `due` (not before the last one).
    fn schedule(
        &mut self,
        due: u64,
        group: GroupId,
        script: Vec<CallOp>,
        read: Option<u64>,
        probe: bool,
    ) {
        let req = self.w.schedule_submit(due, group, script.clone());
        self.inflight.insert(req, self.ops.len());
        self.ops.push(Op {
            group,
            ops: script,
            read,
            probe,
            due,
            submitted_wall: None,
            read_lo: 0,
        });
        self.remaining += 1;
        self.r.attempted += 1;
    }

    /// One world step and its book-keeping. Returns the commit ticks of
    /// probes that committed in this step.
    fn step(&mut self) -> Option<u64> {
        let t_step = self.spans.map(|_| Instant::now());
        self.w.step();
        self.steps += 1;
        if let (Some(spans), Some(t)) = (self.spans, t_step) {
            let t1 = Instant::now();
            let events = self.recorder.as_ref().map(|rc| rc.take()).unwrap_or_default();
            self.force.feed(&events);
            let label =
                events.iter().find_map(|e| step_metric(&e.kind)).unwrap_or("core.step_us.other");
            self.step_ns.entry(label).or_default().push((t1 - t).as_nanos() as u64);
            let id = spans.id();
            let (start, end) = (spans.ns(t), spans.ns(t1));
            self.rec.record(Span {
                id,
                parent: self.parent,
                name: "world.step",
                req: 0,
                start,
                end,
            });
        }
        let now = self.w.now();
        let due_now = self.next_sched < self.ops.len() && self.ops[self.next_sched].due <= now;
        let done_now = completions(&self.w);
        if !due_now && done_now == self.last_done {
            return None;
        }
        let now_wall = Instant::now();
        // Scheduled submissions fire at exactly their due tick.
        while self.next_sched < self.ops.len() && self.ops[self.next_sched].due <= now {
            let op = &mut self.ops[self.next_sched];
            self.next_sched += 1;
            op.submitted_wall = Some(now_wall);
            if let Some(k) = op.read {
                op.read_lo = self.acked[&k];
            } else {
                for call in &op.ops {
                    *self.issued.get_mut(&decode_counter(call)).expect("owned counter") += 1;
                }
            }
        }
        if done_now == self.last_done {
            return None;
        }
        self.last_done = done_now;
        let finished: Vec<(u64, usize)> = self
            .inflight
            .iter()
            .filter(|(q, _)| self.w.result(**q).is_some())
            .map(|(q, i)| (*q, *i))
            .collect();
        let mut probe_done = None;
        for (q, i) in finished {
            self.inflight.remove(&q);
            let outcome = self.w.result(q).map(|t| t.outcome.clone()).expect("finished");
            let op = &self.ops[i];
            match outcome {
                TxnOutcome::Committed { results } => {
                    self.remaining -= 1;
                    let wall = op.submitted_wall.map_or(0, |t| (now_wall - t).as_nanos() as u64);
                    if op.probe {
                        probe_done = Some(now);
                    } else {
                        self.commit_ticks.push(now - op.due);
                    }
                    if let Some(k) = op.read {
                        if !op.probe {
                            self.r.reads.push(wall);
                        }
                        let v = results.first().and_then(|b| counter::decode_value(b).ok());
                        let hi = self.issued[&k];
                        match v {
                            Some(v) if v >= op.read_lo && v <= hi => {}
                            v => self.r.errors.push(format!(
                                "sim read of counter {k} returned {v:?}, outside {}..={hi}",
                                op.read_lo
                            )),
                        }
                    } else {
                        self.r.writes.push(wall);
                        for call in &op.ops {
                            *self.acked.get_mut(&decode_counter(call)).expect("owned counter") += 1;
                        }
                    }
                }
                TxnOutcome::Aborted { .. } => {
                    // Resubmit as the client would, after a short pause;
                    // the retry keeps the operation's original due tick
                    // and submission time.
                    let (group, script) = (op.group, op.ops.clone());
                    let again = self.w.schedule_submit(now + RETRY_TICKS, group, script);
                    self.inflight.insert(again, i);
                }
                TxnOutcome::Unresolved => {
                    // The coordinator cohort never crashes, so no outcome
                    // should stay unknown; one that does counts as failed.
                    self.remaining -= 1;
                    self.r.failed += 1;
                    self.r.errors.push(format!("transaction req {q} ended unresolved"));
                }
            }
        }
        probe_done
    }

    /// Step until `done` holds or a bound is hit; false on a bound.
    fn run_until(&mut self, t_wall: Instant, mut done: impl FnMut(&Self) -> bool) -> bool {
        let limit = self.w.now() + DRAIN_TICKS;
        while !done(self) {
            if self.w.now() > limit || t_wall.elapsed() > ROUND_WALL_LIMIT {
                return false;
            }
            self.step();
        }
        true
    }

    /// Whether every server cohort is live, active and up to date in the
    /// primary's view.
    fn rejoined(&self) -> bool {
        let Some(p) = self.w.primary_of(SERVER) else { return false };
        let view = self.w.cohort(p).cur_viewid();
        SERVERS.iter().all(|&m| {
            let c = self.w.cohort(m);
            !self.w.is_crashed(m)
                && c.status() == Status::Active
                && c.cur_viewid() == view
                && c.is_up_to_date()
                && !c.fetch_in_progress()
        })
    }
}

/// Build a world, step until both groups have a primary and preload
/// every client's slice to 1.
fn set_up(world_seed: u64, trace: bool) -> Result<(World, Option<SharedRecorder>), String> {
    let mut w = WorldBuilder::new(world_seed)
        .durable(FsyncPolicy::Group { max_batch: 32, max_delay_ms: 5 })
        .group(CLIENT, &[CLIENT_MID], || Box::new(NullModule))
        .group(SERVER, &SERVERS, || Box::new(counter::CounterModule))
        .build();
    let recorder = trace.then(|| w.enable_tracing());
    if !step_until(&mut w, 1_000_000, |w| {
        w.primary_of(SERVER).is_some() && w.primary_of(CLIENT).is_some()
    }) {
        return Err("simulated views never formed".into());
    }
    let mut preload: Vec<u64> = Vec::new();
    for c in 0..CLIENTS {
        let counters: Vec<u64> = counters_of(c).collect();
        for chunk in counters.chunks(PRELOAD_BATCH) {
            let ops: Vec<CallOp> = chunk.iter().map(|&k| counter::incr(SERVER, k, 1)).collect();
            preload.push(w.submit(CLIENT, ops));
        }
    }
    let ok = step_until(&mut w, 10_000_000, |w| preload.iter().all(|&q| w.result(q).is_some()));
    if !ok
        || preload.iter().any(|&q| {
            !matches!(w.result(q).map(|t| &t.outcome), Some(TxnOutcome::Committed { .. }))
        })
    {
        return Err("preload did not commit".into());
    }
    Ok((w, recorder))
}

#[allow(clippy::too_many_lines)]
fn round(seed: u64, index: u64, spans: Option<&Spans>) -> SimRound {
    let mut rec = Recorder::new(spans);
    let round_span = rec.open();
    let world_seed = seed.wrapping_mul(1_000_003).wrapping_add(index);
    let mut rng = Rng::new(world_seed ^ 0x5EED);

    // --- set-up, [`crate::SETUPS`] times: build → views formed → working
    // set preloaded. The last world is kept.
    let setup_span = rec.open();
    let mut r = Round::default();
    let mut kept = None;
    for _ in 0..crate::SETUPS {
        let t0 = Instant::now();
        match set_up(world_seed, spans.is_some()) {
            Ok(up) => {
                r.setups_s.push(t0.elapsed().as_secs_f64());
                kept = Some(up);
            }
            Err(e) => {
                r.errors.push(e);
                return SimRound {
                    base: Round { setups_s: Vec::new(), ..r },
                    ..SimRound::default()
                };
            }
        }
    }
    rec.close("setup", round_span.0, setup_span);
    let Some((w, recorder)) = kept else { return SimRound { base: r, ..SimRound::default() } };
    if let Some(rc) = &recorder {
        rc.take();
    }

    let owned: Vec<u64> = (0..CLIENTS).flat_map(counters_of).collect();
    let load_span = rec.open();
    let m0 = w.metrics().clone();
    let last_done = completions(&w);
    let mut d = Driver {
        w,
        recorder,
        spans,
        rec: Recorder::new(spans),
        parent: load_span.0,
        ops: Vec::new(),
        inflight: BTreeMap::new(),
        next_sched: 0,
        last_done,
        steps: 0,
        remaining: 0,
        force: ForceWaits::default(),
        acked: owned.iter().map(|&k| (k, 1)).collect(),
        issued: owned.iter().map(|&k| (k, 1)).collect(),
        r,
        commit_ticks: Samples::default(),
        step_ns: BTreeMap::new(),
    };
    let t_load = Instant::now();
    let mut crashes = 0;
    let mut failover_ticks = Vec::new();
    for cycle in 0..CYCLES {
        // A segment of seeded open-loop load.
        let base = d.w.now() + 10;
        for i in 0..SEG_TXNS {
            let slice: Vec<u64> = counters_of(i % CLIENTS).collect();
            let pick = |rng: &mut Rng| slice[rng.below(SIM_SLICE) as usize];
            let due = base + i * INTERVAL;
            let k = pick(&mut rng);
            if i % 20 == 19 {
                d.schedule(due, SERVER, vec![counter::read(SERVER, k)], Some(k), false);
            } else {
                d.schedule(due, CLIENT, vec![counter::incr(SERVER, k, 1)], None, false);
            }
        }
        if !d.run_until(t_load, |d| d.remaining == 0) {
            break;
        }
        // Crash the primary; time the first transaction submitted after
        // the crash (a read through the client cohort).
        let Some(p) = d.w.primary_of(SERVER) else {
            d.r.errors.push("no primary before the crash".into());
            break;
        };
        crashes += 1;
        let t_crash = Instant::now();
        let crash_tick = d.w.now();
        if cycle + 1 == CYCLES {
            d.w.crash_disk_loss(p);
        } else {
            d.w.crash(p);
        }
        if let Some(spans) = spans {
            let id = spans.id();
            let (start, end) = (spans.ns(t_crash), spans.ns(Instant::now()));
            d.rec.record(Span { id, parent: load_span.0, name: "world.crash", req: 0, start, end });
        }
        d.w.schedule_recover(crash_tick + RECOVER_AFTER, p);
        let k = counters_of(0).next().unwrap_or(1);
        d.schedule(crash_tick + 1, CLIENT, vec![counter::read(SERVER, k)], Some(k), true);
        let mut probe = None;
        let limit = crash_tick + DRAIN_TICKS;
        while probe.is_none() && d.w.now() < limit && t_load.elapsed() < ROUND_WALL_LIMIT {
            probe = d.step();
        }
        match probe {
            Some(tick) => {
                failover_ticks.push((tick - crash_tick) as f64);
                d.r.failovers_ms.push(t_crash.elapsed().as_secs_f64() * 1e3);
            }
            None => break,
        }
        // The crashed cohort recovers and rejoins before the next segment.
        let recover_at = crash_tick + RECOVER_AFTER;
        if !d.run_until(t_load, |d| d.w.now() > recover_at && d.rejoined() && d.remaining == 0) {
            d.r.errors.push(format!("cohort {p} did not rejoin"));
            break;
        }
    }
    d.rec.flush();
    let load_s = t_load.elapsed().as_secs_f64();
    d.r.heap_mib = crate::heap_mib();
    rec.close("load", round_span.0, load_span);
    let Driver { w, recorder, steps, remaining, mut force, mut r, commit_ticks, step_ns, .. } = d;
    r.rates.push((r.attempted - remaining) as f64 / load_s);
    if remaining > 0 {
        r.failed += remaining;
        r.errors.push(format!("{remaining} simulated transactions never committed"));
    }

    // --- oracles: the world's own safety checks, and final counters equal
    // to the committed increments recorded in the world's results.
    let verify_span = rec.open();
    if let Err(e) = w.verify() {
        r.errors.push(format!("World::verify: {e}"));
    }
    let mut committed: BTreeMap<u64, u64> = BTreeMap::new();
    for (q, t) in w.results() {
        if matches!(t.outcome, TxnOutcome::Committed { .. }) {
            for call in w.script(q).unwrap_or(&[]) {
                if call.proc == "incr" {
                    *committed.entry(decode_counter(call)).or_default() += 1;
                }
            }
        }
    }
    match w.primary_of(SERVER) {
        Some(p) => {
            let finals: BTreeMap<u64, u64> = w
                .cohort(p)
                .gstate()
                .objects()
                .map(|(oid, o)| {
                    (oid.0, counter::decode_value(o.value.as_bytes()).unwrap_or(u64::MAX))
                })
                .collect();
            if let Err(e) = crate::oracle::check_final(&committed, &finals) {
                r.errors.push(e);
            }
        }
        None => r.errors.push("no primary at the end of the round".into()),
    }
    rec.close("verify", round_span.0, verify_span);
    rec.close("round", 0, round_span);

    let m = w.metrics();
    let commits = m.committed - m0.committed;
    let ((n0, b0), (n1, b1)) = (nonheartbeat(&m0), nonheartbeat(m));
    let l = &mut r.layers;
    l.insert("store.fsyncs_per_commit", ratio(m.disk_fsyncs - m0.disk_fsyncs, commits));
    l.insert(
        "store.records_per_fsync",
        ratio(m.disk_appends - m0.disk_appends, m.disk_fsyncs - m0.disk_fsyncs),
    );
    l.insert(
        "store.bytes_per_commit",
        ratio(m.disk_bytes_written - m0.disk_bytes_written, commits),
    );
    l.insert("store.records_replayed", m.records_replayed as f64);
    l.insert(
        "runtime.inflight_p50",
        m.inflight_txns.since(&m0.inflight_txns).percentile(0.5).unwrap_or(0) as f64,
    );
    l.insert("core.msgs_per_commit", ratio(n1 - n0, commits));
    l.insert("core.bytes_per_commit", ratio(b1 - b0, commits));
    let waited = m.prepares_waited - m0.prepares_waited;
    let fast = m.prepares_fast - m0.prepares_fast;
    l.insert("core.prepares_waited_ratio", ratio(waited, waited + fast));
    l.insert(
        "core.retransmissions_per_commit",
        ratio(m.retransmissions - m0.retransmissions, commits),
    );
    l.insert(
        "core.view_change_attempts_per_failover",
        ratio(m.view_change_attempts - m0.view_change_attempts, crashes),
    );
    l.insert(
        "core.view_change_msgs_per_failover",
        ratio(m.view_change_msgs - m0.view_change_msgs, crashes),
    );
    l.insert(
        "core.snapshots_per_1k_commits",
        1e3 * ratio(m.snapshots_taken - m0.snapshots_taken, commits),
    );
    l.insert(
        "snap.chunks_per_rejoin",
        ratio(
            m.snapshot_chunks_received - m0.snapshot_chunks_received,
            m.snapshots_installed - m0.snapshots_installed,
        ),
    );
    l.insert("snap.chunk_retries", (m.snapshot_chunk_retries - m0.snapshot_chunk_retries) as f64);
    l.insert("snap.installs", (m.snapshots_installed - m0.snapshots_installed) as f64);
    l.insert("sim.steps_per_commit", ratio(steps, commits));
    l.insert(
        "sim.rejoin_ticks",
        m.transfer_ticks.since(&m0.transfer_ticks).percentile(0.5).unwrap_or(0) as f64,
    );
    if let Some(rc) = &recorder {
        force.feed(&rc.take());
        r.layers.insert("core.force_wait_ticks_p50", force.waits.pct(0.5) as f64);
    }
    SimRound { base: r, commit_ticks, failover_ticks, step_ns }
}

fn decode_counter(call: &CallOp) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&call.args[..8]);
    u64::from_le_bytes(b)
}

/// Run the workload for `plan.seconds` in whole rounds.
pub fn run(plan: &Plan, seed: u64, spans: Option<&Spans>) -> Result<Outcome, String> {
    let mut notes = vec!["sim-failover".to_string()];
    let rounds = crate::run_rounds(
        plan.seconds,
        plan.max_steal,
        |i| round(seed, i, spans),
        |r| &r.base,
        &mut notes,
    )?;
    let mut o = crate::summarize(rounds.iter().map(|(r, c)| (&r.base, *c)), notes);
    let mut ticks = Samples::default();
    let mut failover_ticks = Vec::new();
    let mut steps: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for (r, _) in rounds.iter().filter(|(_, c)| *c) {
        ticks.extend(&r.commit_ticks);
        failover_ticks.extend(&r.failover_ticks);
        for (k, v) in &r.step_ns {
            steps.entry(k).or_default().extend(v);
        }
    }
    o.layers.insert("sim.commit_p50_ticks", ticks.pct(0.5) as f64);
    o.layers.insert("sim.commit_p99_ticks", ticks.pct(0.99) as f64);
    o.layers.insert("sim.failover_ticks", median(&failover_ticks).unwrap_or(0.0));
    let mut all = Samples::default();
    for (name, s) in &steps {
        all.extend(s);
        o.layers.insert(name, s.pct(0.5) as f64 / 1e3);
    }
    o.layers.insert("sim.step_us_p50", all.pct(0.5) as f64 / 1e3);
    o.notes.push(format!("commit latency (ticks): {}", ticks.describe("ticks")));
    o.notes.push(format!(
        "failovers: {} samples, median {:?} ticks",
        failover_ticks.len(),
        median(&failover_ticks)
    ));
    Ok(o)
}
