//! The two workloads on the live thread runtime: `durable-write` and
//! `lease-read`.
//!
//! Both run whole rounds. A round starts a fresh cluster (a client
//! cohort plus a 3-replica counter group), preloads the working set,
//! drives [`CLIENTS`] closed-loop clients, crashes the bootstrap primary
//! and times the failover, and checks every counter against the
//! clients' own models. `durable-write` then crashes every cohort,
//! recovers each from its WAL and reads every counter back.

use crate::oracle::Model;
use crate::spans::{Recorder, Spans};
use crate::stats::{window_rates, Samples};
use crate::{Outcome, Rng, Round};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vsr_app::counter;
use vsr_core::cohort::{CallOp, TxnOutcome};
use vsr_core::config::CohortConfig;
use vsr_core::module::NullModule;
use vsr_core::types::{GroupId, Mid};
use vsr_net::AddrMap;
use vsr_obs::{Metrics, TraceEvent, TraceKind};
use vsr_runtime::{Cluster, ClusterBuilder, SubmitError};
use vsr_store::{FsyncPolicy, StoreMetrics};

pub(crate) const CLIENT: GroupId = GroupId(1);
pub(crate) const SERVER: GroupId = GroupId(2);
pub(crate) const CLIENT_MID: Mid = Mid(10);
pub(crate) const SERVERS: [Mid; 3] = [Mid(1), Mid(2), Mid(3)];

/// Closed-loop client threads: one per core of the 2-vCPU reference box.
pub const CLIENTS: u64 = 2;
/// Counters owned by each client.
pub const SLICE: u64 = 256;
/// Counters per preload transaction.
const PRELOAD_BATCH: u64 = 8;
/// Counter the warm-up probe increments (owned by no client).
const WARM_COUNTER: u64 = 0;
/// Group commit as in experiment A6.
const GROUP: FsyncPolicy = FsyncPolicy::Group { max_batch: 32, max_delay_ms: 5 };
/// Lease length in ticks (ms), as in experiment A7.
const LEASE_TICKS: u64 = 400;
/// Throughput is sampled on windows of this length.
const WINDOW: Duration = Duration::from_millis(250);
/// Budget of each submit call (retry rounds included), as in A6.
const SUBMIT_DEADLINE: Duration = Duration::from_secs(10);
/// Budget of each `durable-write` submit: six times a failover (~170 ms)
/// and over twenty times what a healthy whole-group restart needs
/// (~43 ms under `EveryRecord`), so a restart that never serves costs
/// each round a fixed, short time.
const DURABLE_DEADLINE: Duration = Duration::from_secs(1);
/// Submissions of one operation before it is counted as failed.
const MAX_TRIES: u32 = 20;

/// Which live workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process transport, in-memory `SimDisk` WALs under group commit,
    /// 95% writes, whole-group restart read-back.
    DurableWrite,
    /// TCP loopback transport, no WAL, leases on, 95% reads.
    LeaseRead,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::DurableWrite => "durable-write",
            Kind::LeaseRead => "lease-read",
        }
    }

    /// Operations per client per round: about 2 s of load on the
    /// reference box. A fixed count rather than a fixed time keeps the
    /// heap steady: a time-bounded load committed more or fewer writes
    /// from run to run and sometimes tipped a growing buffer into one
    /// more doubling.
    fn ops_per_client(self, plan: &Plan) -> u64 {
        let ops = match self {
            Kind::DurableWrite => 10_000,
            Kind::LeaseRead => 32_000,
        };
        ((ops as f64 * plan.scale) as u64).max(20)
    }

    /// Whether operation `i` of a client is a read. `durable-write` reads
    /// one op in 20 (the unleased read path); `lease-read` writes one op
    /// in 20.
    fn is_read(self, i: u64) -> bool {
        match self {
            Kind::DurableWrite => i % 20 == 19,
            Kind::LeaseRead => !i.is_multiple_of(20),
        }
    }
}

/// Size of a run: what one round does and how long to keep starting
/// rounds.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Quiet measured rounds to cover, in seconds.
    pub seconds: f64,
    /// Highest host CPU steal share of a round whose timings count.
    pub max_steal: f64,
    /// Share of each round's operations to run: 1 in a real run.
    pub scale: f64,
}

fn counters_of(client: u64) -> impl Iterator<Item = u64> {
    (0..SLICE).map(move |i| 1 + client * SLICE + i)
}

fn build(kind: Kind, trace: bool) -> Cluster {
    let mut cfg = CohortConfig::new();
    // As in A6: the library default (64, sized for the simulator) would
    // snapshot hundreds of times a second at these rates.
    cfg.snapshot_interval = 4096;
    if kind == Kind::LeaseRead {
        cfg.lease_ticks = LEASE_TICKS;
    }
    let deadline = match kind {
        Kind::DurableWrite => DURABLE_DEADLINE,
        Kind::LeaseRead => SUBMIT_DEADLINE,
    };
    let mut builder = ClusterBuilder::new()
        .cohorts(cfg)
        .submit_deadline(deadline)
        .group(CLIENT, &[CLIENT_MID], || Box::new(NullModule))
        .group(SERVER, &SERVERS, || Box::new(counter::CounterModule));
    if trace {
        builder = builder.tracing();
    }
    match kind {
        Kind::DurableWrite => builder.durable(GROUP).start(),
        Kind::LeaseRead => {
            let addrs = AddrMap::loopback(&[CLIENT_MID, SERVERS[0], SERVERS[1], SERVERS[2]])
                .expect("bind loopback listeners");
            builder.networked(addrs).start()
        }
    }
}

/// What one operation ended as.
enum Done {
    /// Committed with these reply values.
    Committed(Vec<u64>),
    /// No outcome known.
    Unknown,
}

/// Submit `ops` until it commits, resubmitting aborts as a client would.
fn submit_until_committed(
    cluster: &Cluster,
    group: GroupId,
    ops: &[CallOp],
    rec: &mut Recorder<'_>,
    parent: u64,
    req: u64,
) -> Done {
    for _ in 0..MAX_TRIES {
        let (outcome, _) =
            rec.span("cluster.submit", parent, req, || cluster.submit(group, ops.to_vec()));
        match outcome {
            Ok(TxnOutcome::Committed { results }) => {
                let values =
                    results.iter().map(|r| counter::decode_value(r).unwrap_or(u64::MAX)).collect();
                return Done::Committed(values);
            }
            Ok(TxnOutcome::Aborted { .. }) => continue,
            Ok(TxnOutcome::Unresolved) | Err(SubmitError::Timeout { .. }) => return Done::Unknown,
            Err(SubmitError::UnknownGroup(g)) => panic!("unknown group {g}"),
        }
    }
    Done::Unknown
}

/// Shared state of the load phase.
struct Load {
    committed: AtomicU64,
}

/// Messages and bytes sent, heartbeats excluded.
pub(crate) fn nonheartbeat(m: &Metrics) -> (u64, u64) {
    let msgs = m.msgs.iter().filter(|(k, _)| **k != "im-alive").map(|(_, v)| v).sum();
    let bytes = m.bytes.iter().filter(|(k, _)| **k != "im-alive").map(|(_, v)| v).sum();
    (msgs, bytes)
}

fn store_totals(cluster: &Cluster) -> StoreMetrics {
    let mut t = StoreMetrics::default();
    for mid in SERVERS.iter().chain([CLIENT_MID].iter()) {
        if let Some(s) = cluster.store_metrics(*mid) {
            t.appends += s.appends;
            t.fsyncs += s.fsyncs;
            t.bytes_written += s.bytes_written;
        }
    }
    t
}

/// `a / b`, or 0 when nothing was counted.
pub(crate) fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Force-begin → force-fire waits, in ticks, paired per cohort.
#[derive(Default)]
pub(crate) struct ForceWaits {
    pending: BTreeMap<Mid, Vec<(vsr_core::types::Viewstamp, u64)>>,
    pub(crate) waits: Samples,
}

impl ForceWaits {
    pub(crate) fn feed(&mut self, events: &[TraceEvent]) {
        for e in events {
            match e.kind {
                TraceKind::ForceBegin => {
                    if let Some(vs) = e.vs {
                        self.pending.entry(e.cohort).or_default().push((vs, e.tick));
                    }
                }
                TraceKind::ForceFire { .. } => {
                    let Some(vs) = e.vs else { continue };
                    let Some(p) = self.pending.get_mut(&e.cohort) else { continue };
                    let waits = &mut self.waits;
                    p.retain(|&(begun, at)| {
                        if begun <= vs {
                            waits.push(e.tick.saturating_sub(at));
                            false
                        } else {
                            true
                        }
                    });
                }
                _ => {}
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    kind: Kind,
    cluster: &Cluster,
    load: &Load,
    model: &mut Model,
    rng: &mut Rng,
    plan: &Plan,
    spans: Option<&Spans>,
    parent: u64,
    out: &Mutex<Round>,
) {
    let mut rec = Recorder::new(spans);
    let counters: Vec<u64> = model.counters().collect();
    let (mut writes, mut reads) = (Samples::default(), Samples::default());
    let (mut attempted, mut failed) = (0, 0);
    let mut errors = Vec::new();
    for i in 0..kind.ops_per_client(plan) {
        let c = counters[rng.below(counters.len() as u64) as usize];
        let read = kind.is_read(i);
        let req = rng.next_u64() | 1;
        attempted += 1;
        let started = Instant::now();
        let done = if read {
            submit_until_committed(
                cluster,
                SERVER,
                &[counter::read(SERVER, c)],
                &mut rec,
                parent,
                req,
            )
        } else {
            submit_until_committed(
                cluster,
                CLIENT,
                &[counter::incr(SERVER, c, 1)],
                &mut rec,
                parent,
                req,
            )
        };
        let ns = started.elapsed().as_nanos() as u64;
        match done {
            Done::Committed(values) => {
                load.committed.fetch_add(1, Ordering::Relaxed);
                let v = values.first().copied().unwrap_or(u64::MAX);
                let check = if read {
                    reads.push(ns);
                    model.check_read(c, v)
                } else {
                    writes.push(ns);
                    model.commit_incr(c, v)
                };
                if let Err(e) = check {
                    errors.push(e);
                }
            }
            Done::Unknown => {
                failed += 1;
                if !read {
                    model.unknown_incr(c);
                }
            }
        }
    }
    let mut r = out.lock().expect("round lock");
    r.writes.extend(&writes);
    r.reads.extend(&reads);
    r.attempted += attempted;
    r.failed += failed;
    r.errors.extend(errors);
}

/// Read every counter of each model in one read-only transaction per
/// client and check it lies in the model's possible range. Returns
/// (attempted, failed) counted per counter.
fn read_back(
    cluster: &Cluster,
    models: &[Model],
    spans: Option<&Spans>,
    parent: u64,
    errors: &mut Vec<String>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter()
            .map(|model| {
                s.spawn(move || {
                    let mut rec = Recorder::new(spans);
                    let counters: Vec<u64> = model.counters().collect();
                    let ops: Vec<CallOp> =
                        counters.iter().map(|&c| counter::read(SERVER, c)).collect();
                    let (outcome, _) =
                        rec.span("cluster.submit", parent, 0, || cluster.submit(SERVER, ops));
                    let mut errs = Vec::new();
                    let ok = match outcome {
                        Ok(TxnOutcome::Committed { results }) => {
                            for (&c, r) in counters.iter().zip(results.iter()) {
                                let v = counter::decode_value(r).unwrap_or(u64::MAX);
                                if let Err(e) = model.check_read(c, v) {
                                    errs.push(e);
                                }
                            }
                            true
                        }
                        _ => false,
                    };
                    (counters.len() as u64, ok, errs)
                })
            })
            .collect();
        for h in handles {
            let (n, ok, errs) = h.join().expect("read-back thread");
            attempted += n;
            if !ok {
                failed += n;
            }
            errors.extend(errs);
        }
    });
    (attempted, failed)
}

/// Time the store layer directly: a `FileStore` beside the cluster's
/// WALs, fed the record mix of one write (completed call, committing,
/// committed, done) and flushed per write, as group commit would.
fn store_probe(dir: &Path, rec: &mut Recorder<'_>, parent: u64) -> (Samples, Samples) {
    use vsr_core::durable::DurableEvent;
    use vsr_core::event::{EventKind, EventRecord};
    use vsr_core::gstate::{CompletedCall, LockMode, ObjectAccess, Value};
    use vsr_core::types::{Aid, CallId, ObjectId, Timestamp, ViewId, Viewstamp};
    use vsr_store::Store;

    let mut store = vsr_store::FileStore::open(dir.join("probe"), GROUP).expect("open probe store");
    let view = ViewId::initial(SERVERS[0]);
    let (mut append, mut fsync) = (Samples::default(), Samples::default());
    for n in 0..128u64 {
        let aid = Aid { group: CLIENT, view, seq: n };
        let vs = |ts: u64| Viewstamp::new(view, Timestamp(4 * n + ts));
        let value = Value(vsr_app::codec::Encoder::new().u64(n).finish());
        let records = [
            EventKind::CompletedCall {
                aid,
                record: CompletedCall {
                    vs: vs(1),
                    call_id: CallId { aid, seq: 0 },
                    accesses: vec![ObjectAccess {
                        oid: ObjectId(n % SLICE),
                        mode: LockMode::Write,
                        written: Some(value.clone()),
                        read_version: Some(n),
                    }],
                    result: value,
                    nested: Vec::new(),
                },
            },
            EventKind::Committing { aid, plist: vec![SERVER] },
            EventKind::Committed { aid },
            EventKind::Done { aid },
        ];
        for (ts, kind) in records.into_iter().enumerate() {
            let event = DurableEvent::Record(EventRecord { vs: vs(ts as u64 + 1), kind });
            let t = Instant::now();
            let (r, _) = rec.span("store.persist", parent, n, || store.persist(&event));
            r.expect("probe persist");
            append.push(t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        let (r, _) = rec.span("store.flush", parent, n, || store.flush());
        r.expect("probe flush");
        fsync.push(t.elapsed().as_nanos() as u64);
    }
    (append, fsync)
}

/// Start a cluster, wait for its view (the first committed write),
/// preload every client's slice to 1 and, on `lease-read`, read until
/// one read is served from the lease. `None` when the cluster never
/// formed its view.
fn set_up(
    kind: Kind,
    trace: bool,
    rec: &mut Recorder<'_>,
    parent: u64,
    errors: &mut Vec<String>,
) -> Option<(Cluster, Vec<Model>)> {
    let (cluster, _) = rec.span("cluster.start", parent, 0, || build(kind, trace));
    let warm = [counter::incr(SERVER, WARM_COUNTER, 1)];
    if !matches!(
        submit_until_committed(&cluster, CLIENT, &warm, rec, parent, 0),
        Done::Committed(..)
    ) {
        errors.push("cluster never formed its bootstrap view".into());
        cluster.shutdown();
        return None;
    }
    let models: Vec<Model> = (0..CLIENTS).map(|c| Model::new(counters_of(c), 1)).collect();
    for model in &models {
        let counters: Vec<u64> = model.counters().collect();
        for chunk in counters.chunks(PRELOAD_BATCH as usize) {
            let ops: Vec<CallOp> = chunk.iter().map(|&c| counter::incr(SERVER, c, 1)).collect();
            match submit_until_committed(&cluster, CLIENT, &ops, rec, parent, 0) {
                Done::Committed(values) if values.iter().all(|&v| v == 1) => {}
                Done::Committed(values) => {
                    errors.push(format!("preload returned {values:?}, expected all 1"))
                }
                Done::Unknown => errors.push("preload transaction failed".into()),
            }
        }
    }
    if kind == Kind::LeaseRead {
        let c = models[0].counters().next().unwrap_or(1);
        let mut served = false;
        for _ in 0..1_000 {
            let before = cluster.metrics().leased_reads;
            let read = [counter::read(SERVER, c)];
            if let Done::Committed(v) =
                submit_until_committed(&cluster, SERVER, &read, rec, parent, 0)
            {
                if let Err(e) = models[0].check_read(c, v[0]) {
                    errors.push(e);
                }
            }
            if cluster.metrics().leased_reads > before {
                served = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if !served {
            errors.push("no read was served from a lease within the set-up budget".into());
        }
    }
    Some((cluster, models))
}

#[allow(clippy::too_many_lines)]
fn round(
    kind: Kind,
    plan: &Plan,
    seed: u64,
    index: u64,
    tmp: &Path,
    spans: Option<&Spans>,
) -> Round {
    let mut r = Round::default();
    let mut rec = Recorder::new(spans);
    let round_span = rec.open();
    let dir: PathBuf = tmp.join(format!("{}-{}-{index}", kind.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace = spans.is_some();

    // --- set-up, [`crate::SETUPS`] times; the last cluster is kept.
    let setup_span = rec.open();
    let mut kept: Option<(Cluster, Vec<Model>)> = None;
    for _ in 0..crate::SETUPS {
        if let Some((cluster, _)) = kept.take() {
            cluster.shutdown();
        }
        let t0 = Instant::now();
        match set_up(kind, trace, &mut rec, setup_span.0, &mut r.errors) {
            Some(up) => {
                r.setups_s.push(t0.elapsed().as_secs_f64());
                kept = Some(up);
            }
            None => {
                r.setups_s.clear();
                return r;
            }
        }
    }
    rec.close("setup", round_span.0, setup_span);
    let Some((cluster, mut models)) = kept else { return r };

    // --- load: CLIENTS closed-loop clients on disjoint slices.
    let m0 = cluster.metrics();
    let s0 = store_totals(&cluster);
    let load = Load { committed: AtomicU64::new(0) };
    let out = Mutex::new(Round::default());
    let mut force = ForceWaits::default();
    let load_span = rec.open();
    let t_load = Instant::now();
    let mut edges = vec![(0.0, 0)];
    std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .enumerate()
            .map(|(c, model)| {
                let (cluster, load, out) = (&cluster, &load, &out);
                let mut rng =
                    Rng::new(seed ^ (index << 32) ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9));
                s.spawn(move || {
                    client_loop(kind, cluster, load, model, &mut rng, plan, spans, load_span.0, out)
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(WINDOW);
            if trace {
                force.feed(&cluster.trace_events());
            }
            edges.push((t_load.elapsed().as_secs_f64(), load.committed.load(Ordering::Relaxed)));
        }
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let load_s = t_load.elapsed().as_secs_f64();
    r.heap_mib = crate::heap_mib();
    rec.close("load", round_span.0, load_span);
    // The last edge closes a partial window in which clients were
    // finishing: only whole windows count.
    edges.pop();
    let mut measured = out.into_inner().expect("round lock");
    r.rates = window_rates(&edges);
    if r.rates.is_empty() {
        // A load phase shorter than one window is its own window.
        r.rates.push(load.committed.load(Ordering::Relaxed) as f64 / load_s);
    }
    r.writes = std::mem::take(&mut measured.writes);
    r.reads = std::mem::take(&mut measured.reads);
    r.attempted += measured.attempted;
    r.failed += measured.failed;
    r.errors.append(&mut measured.errors);
    let m1 = cluster.metrics();
    let s1 = store_totals(&cluster);

    if trace && kind == Kind::DurableWrite {
        let probe_span = rec.open();
        let (append, fsync) = store_probe(&dir, &mut rec, probe_span.0);
        rec.close("store.probe", round_span.0, probe_span);
        r.layers.insert("store.append_us_p50", append.pct(0.5) as f64 / 1e3);
        r.layers.insert("store.fsync_us_p50", fsync.pct(0.5) as f64 / 1e3);
    }

    // --- failover: crash the bootstrap primary; time until the first
    // write submitted after the crash commits.
    let fail_span = rec.open();
    let t_crash = Instant::now();
    rec.span("cluster.crash", fail_span.0, 0, || cluster.crash(SERVERS[0]));
    let c = models[0].counters().next().unwrap_or(1);
    r.attempted += 1;
    match submit_until_committed(
        &cluster,
        CLIENT,
        &[counter::incr(SERVER, c, 1)],
        &mut rec,
        fail_span.0,
        0,
    ) {
        Done::Committed(v) => {
            r.failovers_ms.push(t_crash.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = models[0].commit_incr(c, v[0]) {
                r.errors.push(e);
            }
        }
        Done::Unknown => {
            r.failed += 1;
            models[0].unknown_incr(c);
        }
    }
    rec.close("failover", round_span.0, fail_span);
    let m2 = cluster.metrics();
    if trace {
        force.feed(&cluster.trace_events());
    }

    // After the failover every counter must lie between its acknowledged
    // count and that count plus the increments whose outcome is unknown.
    let (a, f) = read_back(&cluster, &models, spans, round_span.0, &mut r.errors);
    r.attempted += a;
    r.failed += f;

    if kind == Kind::DurableWrite {
        // --- whole-group restart: crash every cohort, recover each from
        // its WAL, then read every counter back.
        let restart_span = rec.open();
        let all = [SERVERS[1], SERVERS[2], CLIENT_MID];
        for mid in all {
            rec.span("cluster.crash", restart_span.0, 0, || cluster.crash(mid));
        }
        let replayed = cluster.metrics().records_replayed;
        for mid in SERVERS.into_iter().chain([CLIENT_MID]) {
            rec.span("cluster.recover", restart_span.0, 0, || cluster.recover(mid));
        }
        let (a, f) = read_back(&cluster, &models, spans, restart_span.0, &mut r.errors);
        r.attempted += a;
        r.failed += f;
        let replayed = cluster.metrics().records_replayed - replayed;
        r.layers.insert("store.records_replayed", replayed as f64);
        rec.close("restart", round_span.0, restart_span);
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    rec.close("round", 0, round_span);

    // --- per-layer numbers of this round.
    let commits = m1.committed - m0.committed;
    let (msgs0, bytes0) = nonheartbeat(&m0);
    let (msgs1, bytes1) = nonheartbeat(&m1);
    let l = &mut r.layers;
    l.insert("store.fsyncs_per_commit", ratio(s1.fsyncs - s0.fsyncs, commits));
    l.insert("store.records_per_fsync", ratio(s1.appends - s0.appends, s1.fsyncs - s0.fsyncs));
    l.insert("store.bytes_per_commit", ratio(s1.bytes_written - s0.bytes_written, commits));
    l.insert(
        "runtime.inflight_p50",
        m1.inflight_txns.since(&m0.inflight_txns).percentile(0.5).unwrap_or(0) as f64,
    );
    l.insert("runtime.mailbox_drops", m2.mailbox_drops as f64);
    l.insert("runtime.mailbox_rejections", m2.mailbox_rejections as f64);
    l.insert("core.msgs_per_commit", ratio(msgs1 - msgs0, commits));
    l.insert("core.bytes_per_commit", ratio(bytes1 - bytes0, commits));
    let waited = m1.prepares_waited - m0.prepares_waited;
    let fast = m1.prepares_fast - m0.prepares_fast;
    l.insert("core.prepares_waited_ratio", ratio(waited, waited + fast));
    l.insert("core.force_wait_ticks_p50", force.waits.pct(0.5) as f64);
    l.insert(
        "core.retransmissions_per_commit",
        ratio(m1.retransmissions - m0.retransmissions, commits),
    );
    l.insert(
        "core.view_change_attempts_per_failover",
        (m2.view_change_attempts - m1.view_change_attempts) as f64,
    );
    l.insert(
        "core.view_change_msgs_per_failover",
        (m2.view_change_msgs - m1.view_change_msgs) as f64,
    );
    l.insert(
        "core.snapshots_per_1k_commits",
        1e3 * ratio(m1.snapshots_taken - m0.snapshots_taken, commits),
    );
    let leased = m1.leased_reads - m0.leased_reads;
    l.insert("lease.fast_path_ratio", ratio(leased, r.reads.len()));
    let serve = m1.lease_read_ticks.since(&m0.lease_read_ticks).percentile(0.5).unwrap_or(0) as f64;
    l.insert("lease.serve_us_p50", serve);
    l.insert("lease.rejected", (m1.lease_read_rejected - m0.lease_read_rejected) as f64);
    l.insert("lease.renewals_per_s", (m1.lease_renewals - m0.lease_renewals) as f64 / load_s);
    l.insert("net.frames_per_commit", ratio(m1.net_frames_sent - m0.net_frames_sent, commits));
    l.insert(
        "net.coalesced_per_frame",
        ratio(
            m1.net_frames_coalesced - m0.net_frames_coalesced,
            m1.net_frames_sent - m0.net_frames_sent,
        ),
    );
    l.insert("net.reconnects_per_failover", (m2.net_reconnects - m1.net_reconnects) as f64);
    l.insert("net.queue_drops", m2.net_queue_drops as f64);
    r
}

/// Run the workload for `plan.seconds` in whole rounds.
pub fn run(
    kind: Kind,
    plan: &Plan,
    seed: u64,
    tmp: &Path,
    spans: Option<&Spans>,
) -> Result<Outcome, String> {
    let mut notes = vec![kind.name().to_string()];
    let rounds = crate::run_rounds(
        plan.seconds,
        plan.max_steal,
        |i| round(kind, plan, seed, i, tmp, spans),
        |r| r,
        &mut notes,
    )?;
    let mut o = crate::summarize(rounds.iter().map(|(r, c)| (r, *c)), notes);
    if kind == Kind::LeaseRead {
        if let Some(&serve) = o.layers.get("lease.serve_us_p50") {
            let read_p50 = o.e2e["read_p50_us"];
            o.layers.insert("runtime.read_handoff_us", read_p50 - serve);
        }
    }
    Ok(o)
}
