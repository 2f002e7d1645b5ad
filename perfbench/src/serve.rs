//! `serve_hot` and `serve_fresh`: closed-loop requests to a spawned
//! `unitsd` over its Unix socket on [`TENANTS`] connections, each bound
//! by `hello` to its own tenant and served in turn from one thread, so
//! one request is in flight at a time.

use std::io;
use std::time::{Duration, Instant};

use units::{Engine, Expr, Limits, Outcome};
use units_serve::json::Json;
use units_serve::proto::Request;
use units_serve::{Client, Service, Tenant};

use crate::corpus::{self, OpStream, Plugin, ServeOp, PLUGIN_SIG};
use crate::daemon::{vm_hwm_mb, Daemon};
use crate::layers::{self, int_outcome, wire_verdict, Sweep, SweepOp};
use crate::stats::{Tally, Verdict};
use crate::trace::Tracer;
use crate::{end_to_end, Config, Metric, RunResult, Workload, SETUP_REPEATS};

/// Connections, each bound to its own tenant.
pub const TENANTS: usize = 2;

/// Requests per connection after which the daemon's peak RSS is read.
const RSS_REQUESTS: usize = 4096;

/// How long those requests may take before the run fails.
const RSS_DEADLINE: Duration = Duration::from_secs(60);

/// What one closed-loop caller did.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    pub tally: Tally,
    /// `(start offset, latency)` in nanoseconds, one per attempted op.
    pub samples: Vec<(u64, u64)>,
    pub invokes: u64,
    pub swaps: u64,
    /// Transport errors that ended a loop early.
    pub broken: Vec<String>,
}

/// Drives `call` in a closed loop over `ops`, each a connection index
/// and an op, until `deadline`: each op is sent only after the previous
/// one completed. A transport error fails the op and ends the loop (the
/// connection is gone); typed error frames, refusals and wrong answers
/// are counted and the loop goes on.
pub fn closed_loop(
    ops: &mut impl Iterator<Item = (usize, ServeOp)>,
    epoch: Instant,
    deadline: Instant,
    mut call: impl FnMut(usize, &ServeOp) -> io::Result<Verdict>,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    while Instant::now() < deadline {
        let Some((conn, op)) = ops.next() else { break };
        match op {
            ServeOp::Invoke { .. } => out.invokes += 1,
            ServeOp::Swap { .. } => out.swaps += 1,
        }
        let start = Instant::now();
        let verdict = call(conn, &op);
        let latency = start.elapsed().as_nanos() as u64;
        out.samples
            .push(((start - epoch).as_nanos() as u64, latency));
        match verdict {
            Ok(verdict) => out.tally.record(verdict),
            Err(e) => {
                out.tally.record(Verdict::Failed);
                out.broken.push(e.to_string());
                break;
            }
        }
    }
    out
}

/// One connection's tenant: its plug-ins and argument stream.
struct Conn {
    client: Client,
    plugins: Vec<Plugin>,
    stream: OpStream,
}

impl Conn {
    fn request(&self, op: &ServeOp) -> Request {
        match *op {
            ServeOp::Invoke { plugin, arg } => Request::Invoke {
                name: self.plugins[plugin].name.clone(),
                arg: Some(arg),
                limits: Limits::none(),
            },
            ServeOp::Swap { version } => swap_request(&self.plugins[0], version),
        }
    }

    fn expected(&self, op: &ServeOp) -> Option<Outcome> {
        match *op {
            ServeOp::Invoke { plugin, arg } => {
                Some(int_outcome(self.plugins[plugin].shape.expected(arg)))
            }
            ServeOp::Swap { .. } => None,
        }
    }

    /// One op over the socket, checked against the closed form.
    fn call(&mut self, op: &ServeOp) -> io::Result<Verdict> {
        let request = self.request(op);
        let response = self.client.call(&request)?;
        Ok(wire_verdict(&response, self.expected(op).as_ref()))
    }
}

/// The request that hot-swaps `plugin` to `version`.
pub fn swap_request(plugin: &Plugin, version: usize) -> Request {
    Request::Swap {
        name: plugin.name.clone(),
        source: plugin.versions[version].clone(),
        sig: Some(PLUGIN_SIG.to_string()),
    }
}

fn tenant_name(conn: usize) -> String {
    format!("t{conn}")
}

fn expect_ok(what: &str, response: io::Result<Json>) -> Result<Json, String> {
    match response {
        Ok(r) if r.get_bool("ok") == Some(true) => Ok(r),
        Ok(r) => Err(format!("{what} refused: {}", r.render())),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Spawns a daemon, binds one tenant per connection, publishes every
/// plug-in under its signature, and warms every (plug-in, hot argument)
/// pair. Returns the daemon, its connections, and the set-up time.
fn set_up(config: &Config, tag: &str) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let fresh = config.workload == Workload::ServeFresh;
    let start = Instant::now();
    let mut daemon = Daemon::spawn(&config.unitsd, config.run_dir(tag))
        .map_err(|e| format!("spawn {}: {e}", config.unitsd.display()))?;
    let mut conns = Vec::new();
    for c in 0..TENANTS {
        let mut client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
        expect_ok("hello", client.hello(&tenant_name(c)))?;
        let plugins = corpus::plugins(config.seed, c as u64);
        for p in &plugins {
            let load = Request::Load {
                name: p.name.clone(),
                source: p.versions[0].clone(),
                sig: Some(PLUGIN_SIG.to_string()),
            };
            expect_ok("publish", client.call(&load))?;
        }
        let stream = OpStream::new(config.seed, c as u64, fresh, plugins.len());
        conns.push(Conn {
            client,
            plugins,
            stream,
        });
    }
    for (c, conn) in conns.iter_mut().enumerate() {
        for plugin in 0..conn.plugins.len() {
            for arg in corpus::hot_args(config.seed, c as u64) {
                let verdict = conn
                    .call(&ServeOp::Invoke { plugin, arg })
                    .map_err(|e| format!("warm-up: {e}"))?;
                if verdict != Verdict::Ok {
                    return Err(format!(
                        "warm-up invoke of p{plugin}({arg}) was {verdict:?}"
                    ));
                }
            }
        }
    }
    Ok((daemon, conns, start.elapsed().as_secs_f64()))
}

/// Sends [`RSS_REQUESTS`] checked, untimed requests per connection to
/// a daemon fresh from set-up and reads its peak RSS: a figure for a
/// fixed amount of work, which does not grow with throughput. This
/// daemon is not the measured one, so the measured run starts from the
/// same state as if this had not happened.
fn fixed_work(daemon: &Daemon, conns: &mut [Conn]) -> Result<(LoopOutcome, f64), String> {
    let (out, _, _) = measure(conns, RSS_DEADLINE, RSS_REQUESTS, false);
    let want = (RSS_REQUESTS * conns.len()) as u64;
    if out.invokes + out.swaps != want {
        return Err(format!(
            "{} of {want} fixed requests done in {RSS_DEADLINE:?}: {:?}",
            out.invokes + out.swaps,
            out.broken
        ));
    }
    let rss = vm_hwm_mb(&daemon.pid().to_string()).map_err(|e| format!("read VmHWM: {e}"))?;
    Ok((out, rss))
}

/// Runs one closed loop that serves the connections in turn, until
/// `span` has passed or each connection has sent `cap` requests.
fn measure(
    conns: &mut [Conn],
    span: Duration,
    cap: usize,
    traced: bool,
) -> (LoopOutcome, Tracer, Duration) {
    let epoch = Instant::now();
    let mut tracer = Tracer::default();
    let mut streams: Vec<OpStream> = conns.iter().map(|c| c.stream.clone()).collect();
    let n = conns.len();
    let mut turns = (0..cap.saturating_mul(n)).map(|i| i % n);
    let mut ops = std::iter::from_fn(|| {
        let c = turns.next()?;
        Some((c, streams[c].next()?))
    });
    let mut op_id = 0;
    let out = closed_loop(&mut ops, epoch, epoch + span, |c, op| {
        let conn = &mut conns[c];
        if !traced {
            return conn.call(op);
        }
        op_id += 1;
        let root = tracer.begin("op", op_id);
        let request = conn.request(op);
        let rtt = tracer.begin("serve.round_trip", op_id);
        let response = conn.client.call(&request);
        tracer.end(rtt);
        tracer.end(root);
        Ok(wire_verdict(&response?, conn.expected(op).as_ref()))
    });
    for (conn, stream) in conns.iter_mut().zip(streams) {
        conn.stream = stream;
    }
    let elapsed = epoch.elapsed().min(span + Duration::from_secs(1)).max(span);
    (out, tracer, elapsed)
}

/// The engine counters of the daemon's `stats` reply.
#[derive(Debug, Clone, Copy, Default)]
struct EngineCounters {
    hits: i64,
    misses: i64,
    entries: i64,
    evictions: i64,
    parses: i64,
    store_hits: i64,
}

fn engine_counters(client: &mut Client) -> Result<EngineCounters, String> {
    let stats = expect_ok("stats", client.call(&Request::Stats))?;
    let engine = stats
        .get("engine")
        .ok_or("stats reply has no engine snapshot")?;
    let cache = engine.get("cache").ok_or("engine snapshot has no cache")?;
    let field = |obj: &Json, key: &str| {
        obj.get_int(key)
            .ok_or(format!("engine snapshot lacks `{key}`"))
    };
    let store = engine.get("store").ok_or("engine snapshot has no store")?;
    Ok(EngineCounters {
        hits: field(cache, "source_hits")? + field(cache, "term_hits")?,
        misses: field(cache, "misses")?,
        entries: field(cache, "entries")?,
        evictions: field(cache, "evictions")?,
        parses: field(cache, "parses")?,
        store_hits: field(store, "hits")?,
    })
}

/// The workload's self-check over the measured window: `serve_hot`
/// must be all cache hits; `serve_fresh` must compile every request
/// (one miss per invoke and per swap), and its cache growth is
/// reported as measured.
fn self_check(
    workload: Workload,
    before: EngineCounters,
    after: EngineCounters,
    invokes: u64,
    swaps: u64,
    notes: &mut Vec<String>,
) -> bool {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let growth = after.entries - before.entries;
    let requests = (invokes + swaps).max(1) as f64;
    let line = format!(
        "engine: {hits} hits, {misses} misses, entries {} -> {} ({:.1} per 1000 requests), {} evictions over {invokes} invokes and {swaps} swaps",
        before.entries,
        after.entries,
        growth as f64 * 1000.0 / requests,
        after.evictions - before.evictions,
    );
    notes.push(line);
    let ok = match workload {
        Workload::ServeHot => misses == 0 && hits == invokes as i64,
        _ => misses == (invokes + swaps) as i64,
    };
    notes.push(format!(
        "self-check {}: {}",
        if ok { "passed" } else { "FAILED" },
        match workload {
            Workload::ServeHot =>
                "steady-state engine hit ratio is 1 (no misses, one hit per invoke)",
            _ => "every invoke and swap compiled a new artifact (misses = invokes + swaps)",
        }
    ));
    ok
}

pub fn run(config: &Config) -> Result<RunResult, String> {
    if config.trace {
        return run_traced(config);
    }
    let mut setups = Vec::new();
    let mut kept = None;
    let mut fixed = None;
    for rep in 0..SETUP_REPEATS {
        crate::settle_disk();
        let (daemon, mut conns, secs) = set_up(config, &format!("setup{rep}"))?;
        setups.push(secs);
        if rep == 0 {
            fixed = Some(fixed_work(&daemon, &mut conns)?);
        }
        if rep + 1 < SETUP_REPEATS {
            drop(conns);
            daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        } else {
            kept = Some((daemon, conns));
        }
    }
    let (fixed, rss) = fixed.expect("at least one set-up");
    let (daemon, mut conns) = kept.expect("at least one set-up");
    let before = engine_counters(&mut conns[0].client)?;
    let (out, _, elapsed) = measure(&mut conns, config.measure, usize::MAX, false);
    let after = engine_counters(&mut conns[0].client)?;
    drop(conns);
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let mut tally = out.tally;
    tally.merge(&fixed.tally);
    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    let checked = self_check(
        config.workload,
        before,
        after,
        out.invokes,
        out.swaps,
        &mut result.notes,
    );
    result
        .notes
        .extend(out.broken.iter().map(|e| format!("connection lost: {e}")));
    let (metrics, windows) = end_to_end(&out.samples, elapsed, &tally, &setups, rss, "requests")?;
    result.metrics = metrics;
    result.notes.push(windows);
    result.notes.push(format!(
        "{TENANTS} connections served in turn, one request in flight; rss is that of a daemon after set-up and {RSS_REQUESTS} requests per connection"
    ));
    result.correct = checked && tally.bad() == 0;
    Ok(result)
}

/// The in-process mirror of connection 0's tenant: a service with the
/// same plug-ins, and an engine that sees the same invoke terms.
struct Mirror {
    service: Service,
    tenant: Tenant,
    engine: Engine,
    /// The parsed units of the plug-ins' first versions.
    units: Vec<Expr>,
}

impl Mirror {
    fn new(config: &Config, conn: &Conn) -> Result<Mirror, String> {
        let service = Service::builder().level(units::Level::Constructed).build();
        let engine = layers::engine_builder().build();
        let tenant = service.tenant(&tenant_name(0));
        let mut units = Vec::new();
        for p in &conn.plugins {
            tenant
                .load_plugin(&p.name, &p.versions[0], Some(PLUGIN_SIG))
                .map_err(|e| format!("mirror publish: {e}"))?;
            let unit = units_syntax::parse_expr(&p.versions[0]).map_err(|e| e.to_string())?;
            for arg in corpus::hot_args(config.seed, 0) {
                let want = int_outcome(p.shape.expected(arg));
                let served = tenant
                    .invoke(&p.name, Some(arg))
                    .map_err(|e| e.to_string())?;
                let loaded = engine
                    .load_expr(invoke_term(&unit, arg))
                    .map_err(|e| e.to_string())?;
                let direct = loaded.run().map_err(|e| e.to_string())?;
                if served != want || direct != want {
                    return Err(format!("mirror warm-up of {}({arg}) disagrees", p.name));
                }
            }
            units.push(unit);
        }
        Ok(Mirror {
            service,
            tenant,
            engine,
            units,
        })
    }
}

/// The term the service synthesizes for an invoke with an argument.
fn invoke_term(unit: &Expr, arg: i64) -> Expr {
    Expr::app(Expr::invoke_program(unit.clone()), vec![Expr::int(arg)])
}

/// Traced run: alternating plain and span-recording closed-loop slices
/// (their throughput ratio is `bench.trace_overhead`), then the layer
/// sweep over connection 0's stream.
fn run_traced(config: &Config) -> Result<RunResult, String> {
    let (daemon, mut conns, _) = set_up(config, "traced")?;
    let mirror = Mirror::new(config, &conns[0])?;
    let before = engine_counters(&mut conns[0].client)?;
    let mut tally = Tally::default();
    let mut requests = 0;
    let mut loop_spans = 0;
    let overhead = crate::trace_overhead(config.measure.mul_f64(0.6), |traced, span| {
        let (out, tracer, _) = measure(&mut conns, span, usize::MAX, traced);
        tally.merge(&out.tally);
        requests += out.invokes + out.swaps;
        loop_spans += tracer.spans().len();
        out.tally.attempted
    });

    let mut sweep = Sweep::new(config.run_dir("sweep-store"))?;
    let probe = mirror.service.tenant("probe");
    let probe_plugin = conns[0].plugins[0].clone();
    probe
        .load_plugin(
            &probe_plugin.name,
            &probe_plugin.versions[0],
            Some(PLUGIN_SIG),
        )
        .map_err(|e| format!("probe publish: {e}"))?;
    let fresh = config.workload == Workload::ServeFresh;
    let deadline = Instant::now() + config.measure.mul_f64(0.4);
    let (mut sweep_invokes, mut sweep_swaps, mut probes) = (0u64, 0u64, 0usize);
    let conn = &mut conns[0];
    while Instant::now() < deadline {
        let op = conn.stream.next().expect("op streams are endless");
        match op {
            ServeOp::Invoke { plugin, arg } => {
                sweep_invokes += 1;
                let source = corpus::invoke_source(&conn.plugins[plugin].versions[0], arg);
                let expected = int_outcome(conn.plugins[plugin].shape.expected(arg));
                let request = conn.request(&op);
                let unit = &mirror.units[plugin];
                let sweep_op = SweepOp {
                    request,
                    source: &source,
                    expected: &expected,
                };
                sweep.op(
                    &sweep_op,
                    &mut conn.client,
                    &mirror.tenant,
                    &mirror.engine,
                    |e| e.load_expr(invoke_term(unit, arg)),
                );
                // serve_hot has no swaps of its own: time the probe's.
                if !fresh && sweep_invokes % corpus::SWAP_EVERY == 0 {
                    probes += 1;
                    sweep.swap(&swap_request(&probe_plugin, probes % 2), None, &probe);
                }
            }
            ServeOp::Swap { .. } => {
                sweep_swaps += 1;
                sweep.swap(&conn.request(&op), Some(&mut conn.client), &mirror.tenant);
            }
        }
    }
    if probes == 0 && !fresh {
        sweep.swap(&swap_request(&probe_plugin, 1), None, &probe);
    }
    let after = engine_counters(&mut conns[0].client)?;
    drop(conns);
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let requests = (requests + sweep_invokes + sweep_swaps) as f64;
    tally.merge(&sweep.tally);
    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    result.metrics = sweep.metrics();
    let store_hits = (after.store_hits - before.store_hits) as f64;
    let hits = (after.hits - before.hits) as f64 + store_hits;
    let misses = (after.misses - before.misses) as f64;
    result.metrics.extend([
        Metric::new(
            "engine.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
            format!("unitsd cache: {hits} hits, {misses} misses"),
        ),
        Metric::new(
            "engine.entries_per_kreq",
            (after.entries - before.entries) as f64 * 1000.0 / requests,
            "count",
            format!("unitsd cache growth over {requests} requests"),
        ),
        Metric::new(
            "engine.parses_per_op",
            (after.parses - before.parses) as f64 / requests,
            "count",
            format!("unitsd parses over {requests} requests"),
        ),
        Metric::new(
            "store.hit_ratio",
            store_hits / (hits + misses).max(1.0),
            "ratio",
            format!("unitsd store hits over {} loads", hits + misses),
        ),
        overhead,
    ]);
    let dump = config
        .work
        .join(format!("trace-{}.json", config.workload.name()));
    sweep.dump(&dump, config.workload.name(), config.seed)?;
    result.notes.push(format!(
        "spans: {} sweep spans written to {}; {loop_spans} closed-loop spans recorded in memory",
        sweep.tracer.spans().len(),
        dump.display()
    ));
    result.correct = tally.bad() == 0;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted transport: each op's result comes from `script`.
    #[test]
    fn closed_loop_counts_failed_refused_and_wrong_ops() {
        let mut script = vec![
            Ok(Verdict::Ok),
            Ok(Verdict::Refused),
            Ok(Verdict::Failed),
            Ok(Verdict::Ok),
            Ok(Verdict::Wrong),
            Ok(Verdict::Ok),
        ]
        .into_iter();
        let mut ops = OpStream::new(1, 0, false, 4)
            .take(6)
            .enumerate()
            .map(|(i, op)| (i % TENANTS, op));
        let mut turns = Vec::new();
        let epoch = Instant::now();
        let out = closed_loop(&mut ops, epoch, epoch + Duration::from_secs(60), |c, _| {
            turns.push(c);
            script.next().expect("one result per op")
        });
        assert_eq!(turns, [0, 1, 0, 1, 0, 1]);
        assert_eq!(out.tally.attempted, 6);
        assert_eq!(
            (
                out.tally.ok,
                out.tally.refused,
                out.tally.failed,
                out.tally.wrong
            ),
            (3, 1, 1, 1)
        );
        assert_eq!(out.tally.bad(), 3);
        assert_eq!(out.samples.len(), 6);
        assert!(out.broken.is_empty());
    }

    #[test]
    fn a_transport_error_fails_the_op_and_ends_the_loop() {
        let mut calls = 0;
        let mut ops = OpStream::new(1, 0, true, 4).map(|op| (0, op));
        let epoch = Instant::now();
        let out = closed_loop(&mut ops, epoch, epoch + Duration::from_secs(60), |_, _| {
            calls += 1;
            if calls == 3 {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            } else {
                Ok(Verdict::Ok)
            }
        });
        assert_eq!(calls, 3);
        assert_eq!(out.tally.attempted, 3);
        assert_eq!(out.tally.failed, 1);
        assert_eq!(out.tally.error_rate(), 1.0 / 3.0);
        assert!(out.broken[0].contains("gone"));
    }

    #[test]
    fn an_expired_deadline_attempts_nothing() {
        let mut ops = OpStream::new(1, 0, false, 4).map(|op| (0, op));
        let epoch = Instant::now();
        let out = closed_loop(&mut ops, epoch, epoch, |_, _| Ok(Verdict::Ok));
        assert_eq!(out.tally.attempted, 0);
        assert!(out.samples.is_empty());
    }
}
