//! `compile_cold` and `store_warm`: `Engine::invoke` from raw source,
//! in process, from one caller.
//!
//! The caller runs passes; each pass builds a fresh engine with the
//! daemon's options and invokes the seeded corpus. `compile_cold` has no cache directory,
//! so every program is parsed, checked, resolved and run. `store_warm`
//! points every pass's engine at a store populated during set-up — the
//! shape of a process restart — so every program comes from disk.

use std::path::{Path, PathBuf};
use std::time::Instant;

use units::{Backend, Engine, MetricsSnapshot, Outcome};
use units_serve::proto::Request;
use units_serve::Service;

use crate::corpus::{self, PLUGIN_SIG};
use crate::daemon::{vm_hwm_mb, Daemon};
use crate::layers::{self, outcome_verdict, Sweep, SweepOp};
use crate::serve::swap_request;
use crate::stats::{Tally, Verdict};
use crate::trace::Tracer;
use crate::{end_to_end, Config, Metric, RunResult, Workload, SETUP_REPEATS};

/// Untimed passes run before the measured ones; peak RSS is read
/// after them.
const RSS_PASSES: u64 = 50;

/// The seeded corpus with its reference answers.
struct Corpus {
    sources: Vec<String>,
    /// Answers from the Fig. 11 reference reducer, never from the
    /// backend under test.
    oracle: Vec<Outcome>,
}

fn corpus(seed: u64) -> Result<Corpus, String> {
    let sources = corpus::programs(seed);
    let reducer = layers::engine_builder().backend(Backend::Reducer).build();
    let oracle = sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            reducer
                .invoke(s)
                .map_err(|e| format!("reference reducer on program {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Corpus { sources, oracle })
}

/// The engine of one pass: fresh, over the store for `store_warm`.
fn pass_engine(store: Option<&Path>) -> Engine {
    match store {
        Some(dir) => layers::engine_builder().cache_dir(dir).build(),
        None => layers::engine_builder().build(),
    }
}

/// Counters summed over passes, for the self-checks and ratios.
#[derive(Debug, Default)]
struct PassTotals {
    passes: u64,
    ops: u64,
    hits: u64,
    misses: u64,
    parses: u64,
    store_hits: u64,
    entries: u64,
    failed_checks: Vec<String>,
}

impl PassTotals {
    /// Folds in one pass of `ops` programs and checks it: a cold pass
    /// misses on every program; a warm pass parses nothing and answers
    /// every program from the store.
    fn add(&mut self, warm: bool, ops: u64, snap: &MetricsSnapshot) {
        self.passes += 1;
        self.ops += ops;
        self.hits += snap.cache.source_hits + snap.cache.term_hits;
        self.misses += snap.cache.misses;
        self.parses += snap.cache.parses;
        self.store_hits += snap.store.hits;
        self.entries += snap.cache.entries as u64;
        let ok = if warm {
            snap.cache.parses == 0 && snap.store.hits == ops
        } else {
            snap.cache.misses == ops
        };
        if !ok && self.failed_checks.len() < 3 {
            self.failed_checks.push(format!(
                "pass {} of {ops} programs: misses {}, parses {}, store hits {}",
                self.passes, snap.cache.misses, snap.cache.parses, snap.store.hits
            ));
        }
    }

    fn note(&self, warm: bool) -> String {
        let claim = if warm {
            "every pass parsed nothing and took every program from the store"
        } else {
            "every pass missed the cache on every program"
        };
        let verdict = if self.failed_checks.is_empty() {
            "passed"
        } else {
            "FAILED"
        };
        format!(
            "self-check {verdict}: {claim} ({} passes, {} programs, {} misses, {} parses, {} store hits){}",
            self.passes,
            self.ops,
            self.misses,
            self.parses,
            self.store_hits,
            self.failed_checks.iter().map(|f| format!("; {f}")).collect::<String>()
        )
    }
}

/// Fills `dir` with the corpus through an engine's write-through.
fn populate(dir: &Path, corpus: &Corpus) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let engine = pass_engine(Some(dir));
    for (i, (source, want)) in corpus.sources.iter().zip(&corpus.oracle).enumerate() {
        let got = engine
            .invoke(source)
            .map_err(|e| format!("populate program {i}: {e}"))?;
        if &got != want {
            return Err(format!(
                "populate program {i}: answer disagrees with the reducer"
            ));
        }
    }
    let writes = engine.metrics_snapshot().store.writes;
    if writes != corpus.sources.len() as u64 {
        return Err(format!(
            "store took {writes} of {} writes",
            corpus.sources.len()
        ));
    }
    Ok(())
}

/// What a series of passes recorded.
#[derive(Debug, Default)]
struct PassLog {
    /// `(start offset, latency)` in nanoseconds, one per program.
    samples: Vec<(u64, u64)>,
    tally: Tally,
    totals: PassTotals,
}

/// Where a series of passes stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// At a deadline, possibly mid-pass.
    Deadline(Instant),
    /// After this many whole passes.
    Passes(u64),
}

impl Until {
    fn reached(self, passes_done: u64) -> bool {
        match self {
            Until::Deadline(deadline) => Instant::now() >= deadline,
            Until::Passes(n) => passes_done >= n,
        }
    }
}

/// Invokes corpus passes on fresh engines until `until`, timing each
/// `Engine::invoke` (or, traced, its load and run halves); sample start
/// offsets count from `epoch`.
fn passes(
    corpus: &Corpus,
    store: Option<&Path>,
    epoch: Instant,
    until: Until,
    log: &mut PassLog,
    mut tracer: Option<&mut Tracer>,
) {
    let mut op_id = 0u64;
    let mut done = 0;
    while !until.reached(done) {
        let engine = pass_engine(store);
        let mut ops = 0;
        for (source, want) in corpus.sources.iter().zip(&corpus.oracle) {
            if until.reached(done) {
                break;
            }
            let start = Instant::now();
            let result = match tracer.as_deref_mut() {
                None => engine.invoke(source),
                Some(t) => {
                    op_id += 1;
                    let root = t.begin("op", op_id);
                    let loaded = t.time("engine.load", op_id, || engine.load(source));
                    let result = loaded.and_then(|l| t.time("engine.run", op_id, || l.run()));
                    t.end(root);
                    result
                }
            };
            let latency = start.elapsed().as_nanos() as u64;
            log.samples
                .push(((start - epoch).as_nanos() as u64, latency));
            log.tally.record(outcome_verdict(&result, want));
            ops += 1;
        }
        log.totals
            .add(store.is_some(), ops, &engine.metrics_snapshot());
        done += 1;
    }
}

/// Set-up: the store (for `store_warm`) and one checked warm-up pass.
/// The corpus and its oracle are built before, untimed: they are the
/// benchmark's, not the engine's.
fn set_up(config: &Config, corpus: &Corpus, tag: &str) -> Result<(Option<PathBuf>, f64), String> {
    let start = Instant::now();
    let store = if config.workload == Workload::StoreWarm {
        let dir = config.run_dir(tag);
        populate(&dir, corpus)?;
        Some(dir)
    } else {
        None
    };
    let engine = pass_engine(store.as_deref());
    for (i, (source, want)) in corpus.sources.iter().zip(&corpus.oracle).enumerate() {
        if outcome_verdict(&engine.invoke(source), want) != Verdict::Ok {
            return Err(format!("warm-up program {i} disagrees with the reducer"));
        }
    }
    Ok((store, start.elapsed().as_secs_f64()))
}

/// Removes the run's store directories on every exit path.
struct Cleanup(Vec<PathBuf>);

impl Drop for Cleanup {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn run(config: &Config) -> Result<RunResult, String> {
    if config.trace {
        return run_traced(config);
    }
    let corpus = corpus(config.seed)?;
    let mut cleanup = Cleanup(Vec::new());
    let mut setups = Vec::new();
    let mut store = None;
    for rep in 0..SETUP_REPEATS {
        // Each set-up starts from the same disk state: the previous
        // set-up's store is removed, untimed, before the sync.
        if let Some(old) = store.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        crate::settle_disk();
        let (dir, secs) = set_up(config, &corpus, &format!("store{rep}"))?;
        cleanup.0.extend(dir.clone());
        setups.push(secs);
        store = dir;
    }
    let store = store.as_deref();
    // Peak RSS after a fixed amount of work, so it does not scale with
    // throughput; these passes are checked but not timed.
    let mut log = PassLog::default();
    let now = Instant::now();
    passes(
        &corpus,
        store,
        now,
        Until::Passes(RSS_PASSES),
        &mut log,
        None,
    );
    let rss = vm_hwm_mb("self").map_err(|e| format!("read VmHWM: {e}"))?;
    log.samples.clear();
    let start = Instant::now();
    let until = Until::Deadline(start + config.measure);
    passes(&corpus, store, start, until, &mut log, None);
    let elapsed = start.elapsed().max(config.measure);

    let warm = store.is_some();
    let mut result = RunResult {
        tally: log.tally,
        ..RunResult::default()
    };
    let (metrics, windows) =
        end_to_end(&log.samples, elapsed, &log.tally, &setups, rss, "programs")?;
    result.metrics = metrics;
    result.notes.push(windows);
    result.notes.push(log.totals.note(warm));
    result.notes.push(format!(
        "one caller, {} distinct programs per pass, {:.1} KiB of source; rss is the driver's after set-up and {RSS_PASSES} passes",
        corpus.sources.len(),
        corpus.sources.iter().map(String::len).sum::<usize>() as f64 / 1024.0
    ));
    result.correct = log.totals.failed_checks.is_empty() && log.tally.bad() == 0;
    Ok(result)
}

/// Traced run: alternating plain and span-recording slices of passes
/// (their throughput ratio is `bench.trace_overhead`), then the layer
/// sweep, each program sent as a `run` request to a daemon and replayed
/// through every layer.
fn run_traced(config: &Config) -> Result<RunResult, String> {
    let corpus = corpus(config.seed)?;
    let mut cleanup = Cleanup(Vec::new());
    let (store, _) = set_up(config, &corpus, "traced-store")?;
    cleanup.0.extend(store.clone());
    let store = store.as_deref();
    let mut log = PassLog::default();
    let mut tracer = Tracer::default();
    let overhead = crate::trace_overhead(config.measure.mul_f64(0.6), |traced, span| {
        let before = log.tally.attempted;
        let now = Instant::now();
        passes(
            &corpus,
            store,
            now,
            Until::Deadline(now + span),
            &mut log,
            traced.then_some(&mut tracer),
        );
        log.tally.attempted - before
    });
    let PassLog {
        mut tally,
        mut totals,
        ..
    } = log;

    let mut daemon = Daemon::spawn(&config.unitsd, config.run_dir("sweep-daemon"))
        .map_err(|e| format!("spawn {}: {e}", config.unitsd.display()))?;
    let mut client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    let hello = client.hello("t0").map_err(|e| format!("hello: {e}"))?;
    if hello.get_bool("ok") != Some(true) {
        return Err("hello refused".to_string());
    }
    let service = Service::builder().level(units::Level::Constructed).build();
    let tenant = service.tenant("t0");
    let probe = service.tenant("probe");
    let probe_plugin = &corpus::plugins(config.seed, 0)[0];
    probe
        .load_plugin(
            &probe_plugin.name,
            &probe_plugin.versions[0],
            Some(PLUGIN_SIG),
        )
        .map_err(|e| format!("probe publish: {e}"))?;
    let mut sweep = Sweep::new(config.run_dir("sweep-store"))?;
    let deadline = Instant::now() + config.measure.mul_f64(0.4);
    let mut swept = 0u64;
    'sweep: while Instant::now() < deadline {
        let engine = pass_engine(store);
        let mut ops = 0;
        for (source, want) in corpus.sources.iter().zip(&corpus.oracle) {
            if Instant::now() >= deadline {
                break;
            }
            let request = Request::Run {
                source: source.clone(),
                limits: units::Limits::none(),
            };
            let op = SweepOp {
                request,
                source,
                expected: want,
            };
            sweep.op(&op, &mut client, &tenant, &engine, |e| e.load(source));
            ops += 1;
            swept += 1;
            if swept.is_multiple_of(corpus::SWAP_EVERY) {
                let version = (swept / corpus::SWAP_EVERY % 2) as usize;
                sweep.swap(&swap_request(probe_plugin, version), None, &probe);
            }
            if sweep.tally.bad() > 0 {
                break 'sweep;
            }
        }
        totals.add(store.is_some(), ops, &engine.metrics_snapshot());
    }
    if swept < corpus::SWAP_EVERY {
        sweep.swap(&swap_request(probe_plugin, 1), None, &probe);
    }
    drop(client);
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    tally.merge(&sweep.tally);
    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    result.metrics = sweep.metrics();
    let loads = (totals.hits + totals.misses + totals.store_hits).max(1) as f64;
    let ops = totals.ops.max(1) as f64;
    result.metrics.extend([
        Metric::new(
            "engine.hit_ratio",
            (totals.hits + totals.store_hits) as f64 / loads,
            "ratio",
            format!(
                "{} memory hits, {} store hits, {} misses",
                totals.hits, totals.store_hits, totals.misses
            ),
        ),
        Metric::new(
            "engine.entries_per_kreq",
            totals.entries as f64 * 1000.0 / ops,
            "count",
            format!(
                "cache entries at the end of each of {} passes",
                totals.passes
            ),
        ),
        Metric::new(
            "engine.parses_per_op",
            totals.parses as f64 / ops,
            "count",
            format!("over {} programs", totals.ops),
        ),
        Metric::new(
            "store.hit_ratio",
            totals.store_hits as f64 / loads,
            "ratio",
            format!(
                "engine store hits over {} loads",
                totals.hits + totals.misses + totals.store_hits
            ),
        ),
        overhead,
    ]);
    let dump = config
        .work
        .join(format!("trace-{}.json", config.workload.name()));
    sweep.dump(&dump, config.workload.name(), config.seed)?;
    result.notes.push(totals.note(store.is_some()));
    result.notes.push(format!(
        "spans: {} sweep spans written to {}; {} pass spans recorded in memory",
        sweep.tracer.spans().len(),
        dump.display(),
        tracer.spans().len()
    ));
    result.correct = totals.failed_checks.is_empty() && tally.bad() == 0;
    Ok(result)
}
