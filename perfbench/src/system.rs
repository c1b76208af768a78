//! The system under test, configured explicitly: the durable engine with
//! the Figure 1 two-level mapping, served by `idl-server` on loopback.

use crate::trace::Tracer;
use idl::{
    Backend, CheckpointPolicy, DurabilityOptions, DurableEngine, Engine, EngineError,
    EngineOptions, EngineSnapshot, FixpointStats, LogFormat, Outcome, RealVfs, SnapshotCodec,
    StorageSpec, SyncPolicy, Value,
};
use idl_server::{serve, ServeMode, ServerConfig, ServerHandle, ServerStatsSnapshot};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The shipped defaults, spelled out so that no `IDL_*` environment
/// variable can change them: compiled plans, semi-naive fixpoint,
/// write-path maintenance, one fixpoint worker per core.
pub fn engine_options(auto_refresh: bool) -> EngineOptions {
    EngineOptions::builder()
        .threads(nproc())
        .compile(true)
        .semi_naive(true)
        .maintain(true)
        .max_results(None)
        .incremental_refresh(true)
        .auto_refresh(auto_refresh)
        .build()
}

/// Fsync before every ack, framed log, binary codec, delta checkpoints
/// up to a chain of 8, `mem` storage.
pub fn durability_options() -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::Always,
        format: LogFormat::Framed,
        codec: SnapshotCodec::Binary,
        checkpoint: CheckpointPolicy::Auto { max_chain: 8 },
        storage: StorageSpec::Mem,
    }
}

/// The default server configuration with the event loop chosen
/// explicitly (`ServeMode::default()` reads `IDL_SERVE_THREADED`).
pub fn server_config() -> ServerConfig {
    ServerConfig { mode: ServeMode::Event, ..ServerConfig::default() }
}

/// The effective configuration, as one JSON object.
pub fn describe(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let e = engine_options(true);
    let d = durability_options();
    let s = server_config();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{},\"rustc\":{:?},\"engine\":{:?},\"durability\":{:?},\
         \"server\":{{\"mode\":\"{}\",\"workers\":{},\"group_commit\":{},\"session_queue\":{},\
         \"pending_queue\":{},\"request_timeout_ms\":{}}}}}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        format!("{e:?}"),
        format!("{d:?}"),
        s.mode,
        s.workers,
        s.group_commit,
        s.session_queue,
        s.pending_queue,
        s.request_timeout.as_millis(),
    )
}

/// When `open_with`'s setup callback ran, to split recovery into base
/// load, setup and log replay.
#[derive(Default)]
pub struct RecoveryClock {
    pub setup_entry: Option<Instant>,
    pub setup_exit: Option<Instant>,
}

/// Opens the durable engine at `dir`. `seed` replaces the (empty)
/// universe of a fresh directory; every open installs the two-level
/// mapping before the log replays, so logged program calls resolve.
pub fn open(
    dir: &Path,
    seed: Option<Value>,
    clock: &mut RecoveryClock,
) -> Result<DurableEngine, EngineError> {
    DurableEngine::open_with_vfs(dir, Arc::new(RealVfs::new()), durability_options(), |e| {
        clock.setup_entry = Some(Instant::now());
        if let Some(universe) = seed {
            *e = Engine::from_universe(universe)?;
        }
        e.set_options(engine_options(true));
        idl::transparency::install_two_level_mapping(e)?;
        clock.setup_exit = Some(Instant::now());
        Ok(())
    })
}

/// Write-path counters gathered around the server's calls into the
/// durable engine (traced runs only).
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteCounters {
    pub group_calls: u64,
    pub records_appended: u64,
    pub maintained_records: u64,
    pub bytes_appended: u64,
    pub syncs: u64,
    pub republishes: u64,
    pub refresh_rule_evals: u64,
    pub delta_rules_run: u64,
}

/// Lets the server-side spans of a write join the benchmark operation
/// that issued it: the single writer session stores its root span and
/// operation id here before sending.
pub struct WriteProbe {
    pub tracer: Arc<Tracer>,
    pub root: AtomicU64,
    pub op: AtomicU64,
    pub counters: Mutex<WriteCounters>,
}

impl WriteProbe {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        WriteProbe {
            tracer,
            root: AtomicU64::new(0),
            op: AtomicU64::new(0),
            counters: Mutex::new(WriteCounters::default()),
        }
    }

    fn current(&self) -> (u64, u64) {
        (self.root.load(Ordering::SeqCst), self.op.load(Ordering::SeqCst))
    }

    fn counters(&self) -> MutexGuard<'_, WriteCounters> {
        self.counters.lock().expect("write counters lock poisoned")
    }
}

/// The backend handed to the server. It shares the durable engine with
/// the benchmark, which takes it back after the server stops, and in a
/// traced run times the server's calls into the engine.
pub struct Served {
    engine: Arc<Mutex<DurableEngine>>,
    stats: FixpointStats,
    probe: Option<Arc<WriteProbe>>,
}

impl Served {
    fn engine(&self) -> MutexGuard<'_, DurableEngine> {
        self.engine.lock().expect("engine lock poisoned")
    }
}

impl Backend for Served {
    fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError> {
        self.engine().execute(src)
    }

    fn query(&mut self, src: &str) -> Result<idl::AnswerSet, EngineError> {
        Backend::query(&mut *self.engine(), src)
    }

    fn update(&mut self, src: &str) -> Result<Outcome, EngineError> {
        self.update_group(&[src.to_string()]).pop().expect("one result per source")
    }

    fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>> {
        let mut d = self.engine.lock().expect("engine lock poisoned");
        let Some(probe) = &self.probe else { return d.update_group(srcs) };
        let (root, op) = probe.current();
        let (stats0, vfs0) = (d.durability_stats(), d.vfs_stats());
        let start = probe.tracer.now();
        let results = d.update_group(srcs);
        let end = probe.tracer.now();
        let (stats1, vfs1) = (d.durability_stats(), d.vfs_stats());
        if root != 0 {
            probe.tracer.record(root, op, "idl.durable_update", start, end);
        }
        let mut c = probe.counters();
        if stats1.records_appended > stats0.records_appended {
            c.group_calls += 1;
        }
        c.records_appended += stats1.records_appended - stats0.records_appended;
        c.maintained_records +=
            stats1.maintenance_records_appended - stats0.maintenance_records_appended;
        c.bytes_appended += stats1.bytes_appended - stats0.bytes_appended;
        c.syncs += (vfs1.file_syncs + vfs1.dir_syncs) - (vfs0.file_syncs + vfs0.dir_syncs);
        results
    }

    fn execute_sql(&mut self, src: &str) -> Result<Outcome, EngineError> {
        self.engine().execute_sql(src)
    }

    fn refresh_views(&mut self) -> Result<FixpointStats, EngineError> {
        let mut d = self.engine.lock().expect("engine lock poisoned");
        let out = d.refresh_views();
        self.stats = d.stats().clone();
        out
    }

    fn stats(&self) -> &FixpointStats {
        &self.stats
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError> {
        let mut d = self.engine.lock().expect("engine lock poisoned");
        let Some(probe) = &self.probe else {
            let snap = d.snapshot();
            self.stats = d.stats().clone();
            return snap;
        };
        let (root, op) = probe.current();
        let start = probe.tracer.now();
        let snap = d.snapshot();
        let end = probe.tracer.now();
        self.stats = d.stats().clone();
        if root != 0 {
            probe.tracer.record(root, op, "idl.republish", start, end);
            let mut c = probe.counters();
            c.republishes += 1;
            c.refresh_rule_evals += self.stats.rule_evals as u64;
            c.delta_rules_run += self.stats.maintenance.delta_rules_run as u64;
        }
        snap
    }

    fn options(&self) -> EngineOptions {
        Backend::options(&*self.engine())
    }

    fn set_options(&mut self, options: EngineOptions) {
        Backend::set_options(&mut *self.engine(), options)
    }

    fn checkpoint(&mut self) -> Result<Outcome, EngineError> {
        self.engine().checkpoint()
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn durability_stats(&self) -> Option<idl::DurabilityStats> {
        Some(self.engine().durability_stats())
    }

    fn storage_spec(&self) -> Option<StorageSpec> {
        Some(self.engine().storage_spec())
    }

    fn is_poisoned(&self) -> bool {
        self.engine().is_poisoned()
    }

    fn analyze(&self, src: &str) -> Result<Vec<idl_eval::analyze::BindingIssue>, EngineError> {
        self.engine().analyze(src)
    }

    fn explain(&self, src: &str) -> Result<String, EngineError> {
        self.engine().explain(src)
    }

    fn universe_json(&self) -> Result<String, EngineError> {
        self.engine().universe_json()
    }

    fn save_snapshot(&self, path: &Path) -> Result<(), EngineError> {
        self.engine().save_snapshot(path)
    }
}

/// A running server and the engine it serves.
pub struct Live {
    pub handle: ServerHandle,
    pub engine: Arc<Mutex<DurableEngine>>,
}

impl Live {
    pub fn start(
        engine: DurableEngine,
        probe: Option<Arc<WriteProbe>>,
    ) -> Result<Live, idl_server::ServerError> {
        let stats = engine.stats().clone();
        let engine = Arc::new(Mutex::new(engine));
        let served = Served { engine: Arc::clone(&engine), stats, probe };
        let handle = serve(Box::new(served), server_config())?;
        Ok(Live { handle, engine })
    }

    /// A read-only snapshot of the served engine (what the server
    /// publishes when no write is in flight).
    pub fn snapshot(&self) -> Result<EngineSnapshot, EngineError> {
        self.engine.lock().expect("engine lock poisoned").snapshot()
    }

    /// Stops the server and takes the engine back, without checkpointing.
    pub fn stop(self) -> (DurableEngine, ServerStatsSnapshot) {
        let stats = self.handle.shutdown();
        let mut engine = self.engine;
        // The server drops its handle on the engine once its last thread
        // has finished.
        for _ in 0..1000 {
            match Arc::try_unwrap(engine) {
                Ok(m) => return (m.into_inner().expect("engine lock poisoned"), stats),
                Err(shared) => engine = shared,
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("the server still holds the engine 2 s after shutdown");
    }
}

/// The process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total and stolen CPU ticks of the host's view of this machine, from
/// `/proc/stat` (steal is time the hypervisor gave the vCPUs to others).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map(|f| f.parse().unwrap_or(0)).collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}
