//! The three workloads, driven through `idl-server` from at most two
//! client sessions in a closed loop, with every answer checked.

use crate::stats::{self, Samples, Tally};
use crate::system::{self, Live, RecoveryClock, WriteProbe};
use crate::trace::Tracer;
use crate::workload::{self, Class, Reads, Rng, Toggle};
use idl::{AnswerSet, Backend, Engine, EngineSnapshot, EvalOptions, PlanCache, Subst};
use idl_server::protocol::{self, WireRequest, WireResponse, DEFAULT_MAX_FRAME};
use idl_server::{Client, ServerStatsSnapshot};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QueryMix,
    UpdateMix,
    Restart,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "query_mix" => Some(Workload::QueryMix),
            "update_mix" => Some(Workload::UpdateMix),
            "restart" => Some(Workload::Restart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryMix => "query_mix",
            Workload::UpdateMix => "update_mix",
            Workload::Restart => "restart",
        }
    }

    fn params(self) -> Params {
        match self {
            Workload::QueryMix => Params {
                stocks: 40,
                days: 150,
                readers: 1,
                writer: false,
                tail_cycles: 5,
                cycle_writes: 4,
            },
            Workload::UpdateMix => Params {
                stocks: 10,
                days: 50,
                readers: 1,
                writer: true,
                tail_cycles: 10,
                cycle_writes: 4,
            },
            Workload::Restart => Params {
                stocks: 10,
                days: 50,
                readers: 0,
                writer: false,
                tail_cycles: 0,
                cycle_writes: 16,
            },
        }
    }
}

/// The shape of one workload.
struct Params {
    stocks: usize,
    days: usize,
    /// Read sessions in the measured window (0: the window is restart
    /// cycles). At most one: two read sessions with nothing else to wait
    /// for keep both vCPUs busy, and their read p50s then moved with host
    /// contention about twice as much between runs.
    readers: usize,
    /// Whether a write session runs beside the readers in the window.
    writer: bool,
    /// Restart cycles after the window.
    tail_cycles: usize,
    /// Writes of a restart cycle.
    cycle_writes: usize,
}

/// Set-ups per run: at least `MIN_SETUPS`, and more until they have
/// taken `SETUP_BUDGET` (at most `MAX_SETUPS`); `setup_s` is their median.
/// A set-up at 10 × 50 takes about 15 ms, mostly fsyncs, and the median
/// of fifteen moved up to 2× between runs.
const MIN_SETUPS: usize = 15;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Fewest restart cycles of the `restart` workload.
const MIN_CYCLES: usize = 3;

/// Samples of one phase of a run. Rates are per slice of the window or
/// per restart cycle.
#[derive(Default)]
pub struct Rec {
    pub point: Samples,
    pub scan: Samples,
    pub read_rate: Samples,
    pub write: Samples,
    pub write_rate: Samples,
    pub recovery: Samples,
    pub checkpoint: Samples,
}

/// Completions per throughput sample in the measured window.
const READ_BATCH: usize = 200;
const WRITE_BATCH: usize = 20;

impl Rec {
    pub fn reads(&self) -> usize {
        self.point.len() + self.scan.len()
    }
}

/// Counters summed over every server a run started.
#[derive(Default)]
pub struct ServerAgg {
    pub queue_depth_peak: u64,
    pub load_shed: u64,
    pub group_commits: u64,
    pub group_commit_records: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
}

impl ServerAgg {
    fn add(&mut self, s: &ServerStatsSnapshot) {
        self.queue_depth_peak = self.queue_depth_peak.max(s.queue_depth_peak);
        self.load_shed += s.load_shed;
        self.group_commits += s.group_commits;
        self.group_commit_records += s.group_commit_records;
        self.plan_cache_hits += s.plan_cache_hits;
        self.plan_cache_misses += s.plan_cache_misses;
    }
}

/// How long a session loop runs.
#[derive(Clone, Copy)]
enum Stop<'a> {
    Until(Instant),
    Count(usize),
    /// Until another session sets the flag.
    Flag(&'a AtomicBool),
}

impl Stop<'_> {
    fn done(self, n: usize) -> bool {
        match self {
            Stop::Until(t) => Instant::now() >= t,
            Stop::Count(c) => n >= c,
            Stop::Flag(f) => f.load(Ordering::SeqCst),
        }
    }
}

/// What one session loop saw.
#[derive(Default)]
struct SessionOut {
    rec: Rec,
    /// When each successful operation completed.
    done: Vec<Instant>,
    elapsed_s: f64,
    tally: Tally,
    mismatches: Vec<String>,
    acked: Vec<String>,
}

/// The server's read path replayed in process on a snapshot, stage by
/// stage, for the traced run.
struct Replay {
    snap: EngineSnapshot,
    opts: EvalOptions,
    cache: Mutex<PlanCache>,
}

/// Everything a session loop borrows.
struct Ctx<'a> {
    reads: &'a Reads,
    toggle: &'a Toggle,
    tracer: Option<&'a Tracer>,
    probe: Option<&'a WriteProbe>,
    ops: &'a AtomicU64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One request and its decoded reply over the client's own socket, so
/// that the wait for the server and the decoding can be timed apart.
fn round_trip(
    client: &mut Client,
    req: &WireRequest,
    tr: &Tracer,
    wait_id: u64,
    parent: u64,
    op: u64,
    decode_name: &str,
) -> Result<(WireResponse, usize, u64), String> {
    let start = tr.now();
    protocol::send(client.stream(), req, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
    let payload = protocol::read_frame(client.stream(), DEFAULT_MAX_FRAME, &mut |_| None)
        .map_err(|e| e.to_string())?;
    let end = tr.now();
    tr.record_as(wait_id, parent, op, "client.wait", start, end);
    let resp = tr.time(parent, op, decode_name, || {
        std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<WireResponse>(text).map_err(|e| e.to_string()))
    })?;
    Ok((resp, payload.len() + protocol::FRAME_HEADER, end - start))
}

/// One traced read: the real round trip, then the server's stages
/// replayed in process. Returns the client-side latency and answers.
fn traced_read(
    client: &mut Client,
    cx: &Ctx,
    replay: &Replay,
    tr: &Tracer,
    src: &str,
    class: Class,
) -> Result<(Duration, AnswerSet, AnswerSet), String> {
    let c = class.name();
    let op = cx.ops.fetch_add(1, Ordering::Relaxed);
    let root = tr.id();
    let root_start = tr.now();
    let (wait_id, began) = (tr.id(), Instant::now());
    let req = WireRequest::Query { src: src.to_string() };
    let (resp, bytes, wait_ns) =
        round_trip(client, &req, tr, wait_id, root, op, &format!("server.decode.{c}"))?;
    let latency = began.elapsed();
    let answers = match resp {
        WireResponse::Answers(a) => a,
        other => return Err(format!("{src}: unexpected reply {other:?}")),
    };
    let t0 = tr.now();
    let stmts = idl_lang::parse_program(src).map_err(|e| e.to_string())?;
    let t1 = tr.now();
    let req = match stmts.as_slice() {
        [idl_lang::Statement::Request(r)] => r,
        _ => return Err(format!("{src}: not one request")),
    };
    let plan = replay
        .cache
        .lock()
        .expect("plan cache lock poisoned")
        .get_or_compile(&req.items, replay.opts)
        .map_err(|e| e.to_string())?;
    let t2 = tr.now();
    let substs = idl_eval::Evaluator::new(replay.snap.store(), replay.opts)
        .eval_compiled(&plan, vec![Subst::new()])
        .map_err(|e| e.to_string())?;
    let named: BTreeSet<_> = req.vars().into_iter().filter(|v| !v.is_gensym()).collect();
    let replayed: AnswerSet = substs.into_iter().map(|s| s.project(&named)).collect();
    let t3 = tr.now();
    let mut buf = Vec::new();
    protocol::send(&mut buf, &WireResponse::Answers(replayed.clone()), DEFAULT_MAX_FRAME)
        .map_err(|e| e.to_string())?;
    let t4 = tr.now();
    tr.record(root, op, &format!("lang.parse.{c}"), t0, t1);
    tr.record(root, op, "eval.plan", t1, t2);
    tr.record(root, op, &format!("eval.exec.{c}"), t2, t3);
    tr.record(root, op, &format!("server.encode.{c}"), t3, t4);
    tr.record_as(root, 0, op, &format!("op.read.{c}"), root_start, tr.now());
    tr.observe(&format!("reply_bytes.{c}"), bytes as f64);
    tr.observe(&format!("answers.{c}"), replayed.len() as f64);
    let stages = (t4 - t0) as f64;
    tr.observe(&format!("overhead_us.{c}"), (wait_ns as f64 - stages) / 1e3);
    Ok((latency, answers, replayed))
}

/// Closed-loop reads of the query mix until `stop`, after one untimed
/// pass over every distinct read: a fresh server builds its plans and
/// indexes on first use, and the timed reads measure the warm read path.
/// The warm-up answers are checked like the others.
fn read_loop(
    addr: SocketAddr,
    cx: &Ctx,
    replay: Option<&Replay>,
    mut rng: Rng,
    stop: Stop,
) -> SessionOut {
    let mut out = SessionOut::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.record(false);
            out.mismatches.push(format!("read session cannot connect: {e}"));
            return out;
        }
    };
    for id in 0..cx.reads.len() {
        let src = cx.reads.src(id);
        let wrong = match client.query(src) {
            Ok(got) if cx.reads.check(id, &got) => None,
            Ok(got) => Some(format!("wrong answer to {src} ({} rows) in the warm-up", got.len())),
            Err(e) => Some(format!("{src}: {e}")),
        };
        out.tally.record(wrong.is_none());
        out.mismatches.extend(wrong);
    }
    let began = Instant::now();
    let mut n = 0;
    while !stop.done(n) {
        n += 1;
        let (id, class) = cx.reads.pick(&mut rng);
        let src = cx.reads.src(id);
        let result = match (cx.tracer, replay) {
            (Some(tr), Some(replay)) => traced_read(&mut client, cx, replay, tr, src, class)
                .map(|(lat, got, replayed)| (lat, got, Some(replayed))),
            _ => {
                let t = Instant::now();
                client.query(src).map(|a| (t.elapsed(), a, None)).map_err(|e| e.to_string())
            }
        };
        match result {
            Ok((lat, got, replayed)) => {
                let ok =
                    cx.reads.check(id, &got) && replayed.is_none_or(|r| cx.reads.check(id, &r));
                out.tally.record(ok);
                if !ok {
                    out.mismatches.push(format!("wrong answer to {src} ({} rows)", got.len()));
                }
                match class {
                    Class::Point => out.rec.point.push(ms(lat)),
                    Class::Scan => out.rec.scan.push(ms(lat)),
                }
                out.done.push(Instant::now());
            }
            Err(e) => {
                out.tally.record(false);
                out.mismatches.push(format!("{src}: {e}"));
            }
        }
    }
    out.elapsed_s = began.elapsed().as_secs_f64();
    out
}

/// Back-to-back toggle writes until `stop`, starting from toggle state
/// `state`. Returns the state the last acked write left. A write that
/// changes nothing counts as failed.
fn write_loop(
    addr: SocketAddr,
    cx: &Ctx,
    mut twin: Option<&mut Engine>,
    state: &mut usize,
    stop: Stop,
) -> SessionOut {
    let mut out = SessionOut::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.record(false);
            out.mismatches.push(format!("write session cannot connect: {e}"));
            return out;
        }
    };
    let began = Instant::now();
    let mut n = 0;
    while !stop.done(n) {
        n += 1;
        let src = cx.toggle.write(1 - *state);
        let result = match (cx.tracer, cx.probe) {
            (Some(tr), Some(probe)) => {
                let op = cx.ops.fetch_add(1, Ordering::Relaxed);
                let (root, wait_id) = (tr.id(), tr.id());
                let root_start = tr.now();
                probe.op.store(op, Ordering::SeqCst);
                probe.root.store(wait_id, Ordering::SeqCst);
                let t = Instant::now();
                let req = WireRequest::Update { src: src.clone() };
                let reply =
                    round_trip(&mut client, &req, tr, wait_id, root, op, "client.decode.write");
                let lat = t.elapsed();
                probe.root.store(0, Ordering::SeqCst);
                let total = match reply {
                    Ok((WireResponse::Outcomes(o), _, _)) if o.len() == 1 => {
                        Ok(o[0].stats().map_or(0, |s| s.total()))
                    }
                    Ok((other, _, _)) => Err(format!("unexpected reply {other:?}")),
                    Err(e) => Err(e),
                };
                tr.time(root, op, "lang.parse.write", || idl_lang::parse_program(&src).is_ok());
                if let (Ok(t), Some(twin)) = (&total, twin.as_deref_mut()) {
                    if *t > 0 {
                        let twin_total = tr.time(root, op, "eval.update", || twin.update(&src));
                        if twin_total.map_or(0, |s| s.total()) == 0 {
                            out.mismatches.push(format!("the in-memory twin found {src} a no-op"));
                        }
                        tr.time(root, op, "eval.twin_refresh", || {
                            twin.refresh_views_if_stale().is_ok()
                        });
                    }
                }
                tr.record_as(root, 0, op, "op.write", root_start, tr.now());
                total.map(|t| (lat, t))
            }
            _ => {
                let t = Instant::now();
                client
                    .update(&src)
                    .map(|o| (t.elapsed(), o.stats().map_or(0, |s| s.total())))
                    .map_err(|e| e.to_string())
            }
        };
        match result {
            Ok((lat, total)) if total > 0 => {
                out.tally.record(true);
                out.rec.write.push(ms(lat));
                out.done.push(Instant::now());
                out.acked.push(src);
                *state = 1 - *state;
            }
            Ok(_) => {
                out.tally.record(false);
                out.mismatches.push(format!("no-op write: {src}"));
            }
            Err(e) => {
                out.tally.record(false);
                out.mismatches.push(format!("{src}: {e}"));
            }
        }
    }
    out.elapsed_s = began.elapsed().as_secs_f64();
    out
}

/// One pass over a workload: set-up, measured window, restart cycles.
pub struct Bench {
    workload: Workload,
    p: Params,
    seed: u64,
    seconds: u64,
    dir: PathBuf,
    reads: Reads,
    toggle: Toggle,
    /// In-memory engine that applies every acked write.
    twin: Engine,
    acked: Vec<String>,
    twin_applied: usize,
    /// Toggle state of the served universe.
    state: usize,
    pub tracer: Option<Arc<Tracer>>,
    probe: Option<Arc<WriteProbe>>,
    ops: AtomicU64,
    pub tally: Tally,
    pub mismatches: Vec<String>,
    pub setups: Samples,
    pub window: Rec,
    pub cycles: Rec,
    pub servers: ServerAgg,
}

impl Bench {
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: u64,
        dir: PathBuf,
        traced: bool,
    ) -> Result<Bench, String> {
        let p = workload.params();
        let su = workload::universe(p.stocks, p.days, seed);
        let toggle = Toggle::pick(&su, seed);
        let mut twin = Engine::from_universe(su.universe.clone()).map_err(|e| e.to_string())?;
        twin.set_options(system::engine_options(false));
        idl::transparency::install_two_level_mapping(&mut twin).map_err(|e| e.to_string())?;
        let reads = Reads::build(&su, &toggle, &mut twin)?;
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        if traced {
            // Mirror the server's engine: views fresh before every write.
            twin.set_options(system::engine_options(true));
        }
        let probe = tracer.as_ref().map(|t| Arc::new(WriteProbe::new(Arc::clone(t))));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Bench {
            workload,
            p,
            seed,
            seconds,
            dir,
            reads,
            toggle,
            twin,
            acked: Vec::new(),
            twin_applied: 0,
            state: 0,
            tracer,
            probe,
            ops: AtomicU64::new(1),
            tally: Tally::default(),
            mismatches: Vec::new(),
            setups: Samples::default(),
            window: Rec::default(),
            cycles: Rec::default(),
            servers: ServerAgg::default(),
        })
    }

    /// The write-path counters of a traced pass (zero otherwise).
    pub fn write_counters(&self) -> system::WriteCounters {
        self.probe.as_ref().map_or_else(Default::default, |p| {
            *p.counters.lock().expect("write counters lock poisoned")
        })
    }

    fn fail(&mut self, why: String) {
        self.tally.record(false);
        self.mismatches.push(why);
    }

    fn absorb(&mut self, out: SessionOut, into_window: bool) {
        self.tally.merge(out.tally);
        self.mismatches.extend(out.mismatches);
        if self.tracer.is_some() {
            // the traced writer applied each acked write to the twin
            self.twin_applied += out.acked.len();
        }
        self.acked.extend(out.acked);
        let rec = if into_window { &mut self.window } else { &mut self.cycles };
        rec.point.extend(&out.rec.point);
        rec.scan.extend(&out.rec.scan);
        rec.write.extend(&out.rec.write);
    }

    fn stop(&mut self, live: Live) -> idl::DurableEngine {
        let (engine, stats) = live.stop();
        self.servers.add(&stats);
        engine
    }

    /// Runs the whole pass; mismatches are collected, not returned.
    pub fn run(&mut self) -> Result<(), String> {
        let live = self.setup()?;
        let live = match self.workload {
            Workload::Restart => {
                let deadline = Instant::now() + Duration::from_secs(self.seconds);
                let mut live = live;
                let mut n = 0;
                while n < MIN_CYCLES || Instant::now() < deadline {
                    live = self.cycle(live)?;
                    n += 1;
                }
                live
            }
            _ => {
                self.measured_window(&live);
                // Checkpoint what the window wrote, so that the restart
                // cycles replay only their own writes.
                let mut engine = self.stop(live);
                engine.checkpoint().map_err(|e| format!("checkpoint after the window: {e}"))?;
                let mut live =
                    Live::start(engine, self.probe.clone()).map_err(|e| e.to_string())?;
                for _ in 0..self.p.tail_cycles {
                    live = self.cycle(live)?;
                }
                live
            }
        };
        let engine = self.stop(live);
        let served = engine.universe_json().map_err(|e| e.to_string())?;
        self.check_twin(&served, "at the end of the run");
        drop(engine);
        std::fs::remove_dir_all(&self.dir).ok();
        Ok(())
    }

    /// Set-up, timed repeatedly: generate the universe, open a fresh
    /// durable engine on it, materialise the views, checkpoint, serve.
    /// The last one is kept.
    fn setup(&mut self) -> Result<Live, String> {
        let mut kept = None;
        let first = Instant::now();
        let mut i = 0;
        while i < MIN_SETUPS || (first.elapsed() < SETUP_BUDGET && i < MAX_SETUPS) {
            let dir = self.dir.join(format!("setup{i}"));
            let began = Instant::now();
            let su = workload::universe(self.p.stocks, self.p.days, self.seed);
            let mut engine = system::open(&dir, Some(su.universe), &mut RecoveryClock::default())
                .map_err(|e| format!("open: {e}"))?;
            engine.snapshot().map_err(|e| format!("first snapshot: {e}"))?;
            engine.checkpoint_full().map_err(|e| format!("checkpoint: {e}"))?;
            let live = Live::start(engine, None).map_err(|e| format!("serve: {e}"))?;
            Client::connect(live.handle.local_addr())
                .and_then(|mut c| c.ping())
                .map_err(|e| format!("connect: {e}"))?;
            self.setups.push(began.elapsed().as_secs_f64());
            if let Some((old, old_dir)) = kept.replace((live, dir)) {
                drop(self.stop(old));
                std::fs::remove_dir_all(old_dir).ok();
            }
            i += 1;
        }
        let (live, dir) = kept.expect("at least one set-up");
        self.dir = dir;
        // The kept server runs untraced set-up; restart it with the probe.
        let engine = self.stop(live);
        Live::start(engine, self.probe.clone()).map_err(|e| e.to_string())
    }

    /// What the session loops borrow, and the twin apart from it.
    fn sessions(&mut self) -> (Ctx<'_>, &mut Engine) {
        let cx = Ctx {
            reads: &self.reads,
            toggle: &self.toggle,
            tracer: self.tracer.as_deref(),
            probe: self.probe.as_deref(),
            ops: &self.ops,
        };
        (cx, &mut self.twin)
    }

    fn replay(&self, live: &Live) -> Result<Option<Replay>, String> {
        if self.tracer.is_none() {
            return Ok(None);
        }
        let snap = live.snapshot().map_err(|e| e.to_string())?;
        Ok(Some(Replay {
            snap,
            opts: system::engine_options(true).eval,
            cache: Mutex::new(PlanCache::new()),
        }))
    }

    /// The measured window: reader sessions (and the writer session on
    /// `update_mix`) for `seconds`, then the served universe is checked
    /// against the twin.
    fn measured_window(&mut self, live: &Live) {
        let addr = live.handle.local_addr();
        let replay = match self.replay(live) {
            Ok(r) => r,
            Err(e) => return self.fail(format!("snapshot for replay: {e}")),
        };
        let began = Instant::now();
        let deadline = began + Duration::from_secs(self.seconds);
        let mut state = self.state;
        let traced = self.tracer.is_some();
        let (readers, writer, seed) = (self.p.readers, self.p.writer, self.seed);
        let (outs, wrote) = {
            let (cx, twin) = self.sessions();
            std::thread::scope(|s| {
                let cx = &cx;
                let replay = replay.as_ref();
                let handles: Vec<_> = (0..readers)
                    .map(|i| {
                        s.spawn(move || {
                            read_loop(
                                addr,
                                cx,
                                replay,
                                Rng::new(seed, 100 + i as u64),
                                Stop::Until(deadline),
                            )
                        })
                    })
                    .collect();
                let wrote = writer.then(|| {
                    write_loop(addr, cx, traced.then_some(twin), &mut state, Stop::Until(deadline))
                });
                let outs: Vec<SessionOut> =
                    handles.into_iter().map(|h| h.join().expect("read session panicked")).collect();
                (outs, wrote)
            })
        };
        self.state = state;
        let since = |done: &[Instant]| -> Vec<f64> {
            done.iter().map(|t| t.duration_since(began).as_secs_f64()).collect()
        };
        let read_done: Vec<f64> = outs.iter().flat_map(|o| since(&o.done)).collect();
        self.window.read_rate = stats::batch_rates(&read_done, READ_BATCH);
        for out in outs {
            self.absorb(out, true);
        }
        if let Some(out) = wrote {
            self.window.write_rate = stats::batch_rates(&since(&out.done), WRITE_BATCH);
            self.absorb(out, true);
        }
        match Client::connect(addr).and_then(|mut c| c.dump_universe()) {
            Ok(json) => {
                self.tally.record(true);
                self.check_twin(&json, "after the window");
            }
            Err(e) => self.fail(format!("dump_universe after the window: {e}")),
        }
    }

    /// Brings the twin up to every acked write and compares universes.
    fn check_twin(&mut self, served: &str, when: &str) {
        for src in &self.acked[self.twin_applied..] {
            match self.twin.update(src) {
                Ok(s) if s.total() > 0 => {}
                _ => {
                    self.mismatches.push(format!("the in-memory twin cannot apply {src}"));
                    return;
                }
            }
        }
        self.twin_applied = self.acked.len();
        let twin = self.twin.refresh_views_if_stale().and_then(|_| self.twin.universe_json());
        match twin {
            Ok(json) if json == served => {}
            Ok(_) => self.mismatches.push(format!("served universe differs from the twin {when}")),
            Err(e) => self.mismatches.push(format!("twin {when}: {e}")),
        }
    }

    /// One restart cycle: writes and reads through the server, stop
    /// without a checkpoint, reopen and take the first snapshot (timed
    /// as recovery), compare universes, checkpoint (timed).
    ///
    /// On `restart`, whose measured phase is the cycles, one read session
    /// runs beside the writes (as on `update_mix`). Read bursts after the
    /// writes, alone on a fresh server, followed host contention. After
    /// another workload's window, the writes run alone and the read
    /// session then makes only its checked warm-up pass: on `query_mix`
    /// these writes give `write_p50_ms`, and a reader beside them made
    /// it spread more between runs.
    fn cycle(&mut self, live: Live) -> Result<Live, String> {
        let addr = live.handle.local_addr();
        let replay = self.replay(&live)?;
        let mut state = self.state;
        let traced = self.tracer.is_some();
        let stop_w = Stop::Count(self.p.cycle_writes);
        let rng = Rng::new(self.seed, 200 + self.cycles.recovery.len() as u64);
        let beside = self.p.readers == 0;
        let writing_done = AtomicBool::new(false);
        let (wrote, read) = {
            let (cx, twin) = self.sessions();
            let (cx, replay, done) = (&cx, replay.as_ref(), &writing_done);
            let mut write = || {
                let wrote = write_loop(addr, cx, traced.then_some(twin), &mut state, stop_w);
                done.store(true, Ordering::SeqCst);
                wrote
            };
            if beside {
                std::thread::scope(|s| {
                    let reader =
                        s.spawn(move || read_loop(addr, cx, replay, rng, Stop::Flag(done)));
                    (write(), reader.join().expect("read session panicked"))
                })
            } else {
                let wrote = write();
                (wrote, read_loop(addr, cx, replay, rng, Stop::Count(0)))
            }
        };
        self.state = state;
        self.cycles.write_rate.push(wrote.done.len() as f64 / wrote.elapsed_s);
        if !read.done.is_empty() {
            self.cycles.read_rate.push(read.done.len() as f64 / read.elapsed_s);
        }
        self.absorb(wrote, false);
        self.absorb(read, false);
        let before = Client::connect(addr).and_then(|mut c| c.dump_universe());
        drop(self.stop(live));
        let before = match before {
            Ok(json) => {
                self.tally.record(true);
                Some(json)
            }
            Err(e) => {
                self.fail(format!("dump_universe before the stop: {e}"));
                None
            }
        };
        let (mut engine, recovery) = self.reopen()?;
        self.cycles.recovery.push(recovery);
        let after = engine.universe_json().map_err(|e| e.to_string())?;
        if before.is_some_and(|b| b != after) {
            self.mismatches.push("recovered universe differs from the one before the stop".into());
        }
        let ckpt = self.checkpoint(&mut engine)?;
        self.cycles.checkpoint.push(ckpt);
        Live::start(engine, self.probe.clone()).map_err(|e| e.to_string())
    }

    /// Reopens the durable directory and takes the first snapshot.
    fn reopen(&mut self) -> Result<(idl::DurableEngine, f64), String> {
        let mut clock = RecoveryClock::default();
        let began = Instant::now();
        let opened = system::open(&self.dir, None, &mut clock);
        let opened_at = Instant::now();
        let mut engine = match opened {
            Ok(e) => e,
            Err(e) => {
                self.fail(format!("reopen: {e}"));
                return Err(format!("reopen: {e}"));
            }
        };
        let snap = engine.snapshot();
        let recovery = began.elapsed().as_secs_f64();
        self.tally.record(snap.is_ok());
        if let Err(e) = snap {
            return Err(format!("first snapshot after reopen: {e}"));
        }
        if let Some(tr) = &self.tracer {
            let op = self.ops.fetch_add(1, Ordering::Relaxed);
            let root = tr.id();
            let (b, entry, exit, opened_at) = (
                tr.ns(began),
                tr.ns(clock.setup_entry.unwrap_or(began)),
                tr.ns(clock.setup_exit.unwrap_or(opened_at)),
                tr.ns(opened_at),
            );
            let end = b + (recovery * 1e9) as u64;
            tr.record(root, op, "storage.recovery_base", b, entry);
            tr.record(root, op, "storage.setup", entry, exit);
            tr.record(root, op, "storage.recovery_replay", exit, opened_at);
            tr.record(root, op, "storage.first_snapshot", opened_at, end);
            tr.record_as(root, 0, op, "op.recover", b, end);
            tr.observe("records_replayed", engine.durability_stats().records_recovered as f64);
        }
        Ok((engine, recovery))
    }

    /// A checkpoint, timed in milliseconds.
    fn checkpoint(&mut self, engine: &mut idl::DurableEngine) -> Result<f64, String> {
        let (stats0, vfs0) = (engine.durability_stats(), engine.vfs_stats());
        let began = Instant::now();
        let out = engine.checkpoint();
        let took = began.elapsed();
        self.tally.record(out.is_ok());
        out.map_err(|e| format!("checkpoint: {e}"))?;
        if let Some(tr) = &self.tracer {
            let (stats1, vfs1) = (engine.durability_stats(), engine.vfs_stats());
            let op = self.ops.fetch_add(1, Ordering::Relaxed);
            let start = tr.ns(began);
            tr.record(0, op, "storage.checkpoint", start, start + took.as_nanos() as u64);
            tr.observe(
                "checkpoint_bytes",
                (stats1.snapshot_bytes_written - stats0.snapshot_bytes_written) as f64,
            );
            tr.observe(
                "checkpoint_syncs",
                ((vfs1.file_syncs + vfs1.dir_syncs) - (vfs0.file_syncs + vfs0.dir_syncs)) as f64,
            );
            tr.observe(
                "delta_checkpoint",
                (stats1.delta_checkpoints - stats0.delta_checkpoints) as f64,
            );
        }
        Ok(ms(took))
    }
}
