//! The traced layer sweep: one op replayed through every layer's
//! public entry points, each call wrapped in a span.
//!
//! Per op the sweep times the frame codec (`units-serve` `json`/`proto`),
//! the socket round trip to the daemon, the in-process `Tenant` call,
//! the engine (`Engine::load*`, `Loaded::run_with`), each compiler pass
//! (`parse_file`, `check_program`, `resolve_program`, `lower_program`),
//! both executors (`evaluate_program`, `vm::execute`) and the store
//! (`Store::write`, `Store::read`, `decode_entry`). Every answer is
//! checked against the op's oracle.

use std::collections::HashSet;
use std::path::PathBuf;

use units::{observe_value, CheckOptions, Engine, Level, Limits, Loaded, Observation, Outcome};
use units_runtime::Machine;
use units_serve::json::{self, Json};
use units_serve::proto::{ok_response, write_frame, Request};
use units_serve::{Client, Tenant};
use units_store::{decode_entry, fnv1a_64, Entry, Lookup, Store};

use crate::stats::{median_or_nan, Tally, Verdict};
use crate::trace::Tracer;
use crate::Metric;

/// The fingerprint the sweep's own store is opened with.
const STORE_FINGERPRINT: u64 = 0x005E_ED0F_570E;

/// The options every program is checked under: the daemon default.
pub fn check_options() -> CheckOptions {
    CheckOptions {
        level: Level::Constructed,
        strictness: Default::default(),
    }
}

/// The engine shape under test: the daemon's defaults (constructed
/// types, tree-walking backend, no recovery escalation).
pub fn engine_builder() -> units::EngineBuilder {
    Engine::builder()
        .level(Level::Constructed)
        .on_failure(units::FallbackPolicy::none())
}

/// The verdict for a wire response against an expected outcome
/// (`None` for a publish, where `ok` is the whole answer).
pub fn wire_verdict(response: &Json, expected: Option<&Outcome>) -> Verdict {
    match response.get_bool("ok") {
        Some(true) => match expected {
            None => Verdict::Ok,
            Some(e) if response.get_str("value") == Some(e.value.to_string().as_str()) => {
                Verdict::Ok
            }
            Some(_) => Verdict::Wrong,
        },
        _ if response.get_str("kind") == Some("admission-denied") => Verdict::Refused,
        _ => Verdict::Failed,
    }
}

/// The verdict for an in-process result.
pub fn outcome_verdict<E>(result: &Result<Outcome, E>, expected: &Outcome) -> Verdict {
    match result {
        Ok(outcome) if outcome == expected => Verdict::Ok,
        Ok(_) => Verdict::Wrong,
        Err(_) => Verdict::Failed,
    }
}

/// An expected integer answer with no output.
pub fn int_outcome(n: i64) -> Outcome {
    Outcome {
        value: Observation::Int(n),
        output: Vec::new(),
    }
}

/// One op to replay.
pub struct SweepOp<'a> {
    /// The request as it travels on the wire.
    pub request: Request,
    /// The complete program the op evaluates, as source.
    pub source: &'a str,
    pub expected: &'a Outcome,
}

/// Span recorder plus the per-op counts the spans cannot carry.
pub struct Sweep {
    pub tracer: Tracer,
    pub tally: Tally,
    store: Store,
    store_dir: PathBuf,
    written: HashSet<u64>,
    frame_bytes: Vec<u64>,
    source_bytes: Vec<u64>,
    chunk_ops: Vec<u64>,
    fuel: Vec<u64>,
    cells: Vec<u64>,
    entry_bytes: Vec<u64>,
    transport_ns: Vec<u64>,
    next_op: u64,
}

impl Sweep {
    pub fn new(store_dir: PathBuf) -> Result<Sweep, String> {
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = Store::open(&store_dir, STORE_FINGERPRINT)
            .map_err(|e| format!("open sweep store: {e}"))?;
        Ok(Sweep {
            tracer: Tracer::default(),
            tally: Tally::default(),
            store,
            store_dir,
            written: HashSet::new(),
            frame_bytes: Vec::new(),
            source_bytes: Vec::new(),
            chunk_ops: Vec::new(),
            fuel: Vec::new(),
            cells: Vec::new(),
            entry_bytes: Vec::new(),
            transport_ns: Vec::new(),
            next_op: 1 << 40,
        })
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Replays one invoke or run op through every layer. `client` is
    /// the daemon connection, `tenant` the in-process mirror of the
    /// daemon's tenant, `engine` the mirror of the workload's engine,
    /// and `load` how the workload loads the op's program on it.
    pub fn op(
        &mut self,
        op: &SweepOp<'_>,
        client: &mut Client,
        tenant: &Tenant,
        engine: &Engine,
        load: impl FnOnce(&Engine) -> Result<Loaded, units::Error>,
    ) {
        let id = self.op_id();
        let root = self.tracer.begin("op", id);
        let mut verdicts = Vec::new();

        // Frame codec and the round trip.
        let mut request_frame = Vec::new();
        let _ = write_frame(&mut request_frame, &op.request.to_json());
        let body = std::str::from_utf8(&request_frame[4..]).expect("frames are UTF-8");
        let decoded = self.tracer.time("serve.request_decode", id, || {
            json::parse(body)
                .map_err(|e| e.to_string())
                .and_then(|j| Request::from_json(&j))
        });
        verdicts.push(if decoded.as_ref() == Ok(&op.request) {
            Verdict::Ok
        } else {
            Verdict::Failed
        });
        let rtt = self.tracer.begin("serve.round_trip", id);
        let response = client.call(&op.request);
        self.tracer.end(rtt);
        verdicts.push(
            response
                .as_ref()
                .map_or(Verdict::Failed, |r| wire_verdict(r, Some(op.expected))),
        );

        // The same request through the in-process service.
        let served = self.tracer.begin("serve.tenant_invoke", id);
        let outcome = match &op.request {
            Request::Invoke { name, arg, limits } => tenant.invoke_with(name, *arg, *limits),
            Request::Run { source, limits } => tenant.run(source, *limits),
            other => unreachable!("sweep ops invoke or run, got {other:?}"),
        };
        self.tracer.end(served);
        verdicts.push(outcome_verdict(&outcome, op.expected));
        let spans = self.tracer.spans();
        self.transport_ns.push(
            spans[rtt]
                .duration_ns()
                .saturating_sub(spans[served].duration_ns()),
        );
        // Outcome -> response object -> frame bytes, as the server
        // encodes it.
        let mut response_frame = Vec::new();
        self.tracer.time("serve.response_encode", id, || {
            let response = match &outcome {
                Ok(o) => ok_response([
                    ("value", Json::str(o.value.to_string())),
                    (
                        "output",
                        Json::Arr(o.output.iter().cloned().map(Json::Str).collect()),
                    ),
                ]),
                Err(e) => units_serve::proto::error_response(e.kind(), &e.to_string()),
            };
            write_frame(&mut response_frame, &response).ok()
        });
        self.frame_bytes
            .push((request_frame.len() + response_frame.len()) as u64);

        // The engine, in the workload's cache state.
        let loaded = self.tracer.time("engine.load", id, || load(engine));
        let run = match loaded {
            Ok(loaded) => self.tracer.time("engine.run", id, || {
                loaded.run_with(engine.backend(), Limits::none())
            }),
            Err(e) => Err(e),
        };
        verdicts.push(outcome_verdict(&run, op.expected));

        // The passes, one crate at a time.
        verdicts.push(self.passes(id, op.source, op.expected));

        self.tracer.end(root);
        let verdict = verdicts
            .into_iter()
            .find(|v| *v != Verdict::Ok)
            .unwrap_or(Verdict::Ok);
        self.tally.record(verdict);
    }

    fn passes(&mut self, id: u64, source: &str, expected: &Outcome) -> Verdict {
        let pipeline = self.tracer.begin("pipeline", id);
        let verdict = self.passes_inner(id, source, expected);
        self.tracer.end(pipeline);
        verdict
    }

    fn passes_inner(&mut self, id: u64, source: &str, expected: &Outcome) -> Verdict {
        self.source_bytes.push(source.len() as u64);
        let t = &mut self.tracer;
        let Ok(expr) = t.time("syntax.parse", id, || units_syntax::parse_file(source)) else {
            return Verdict::Failed;
        };
        let Ok(ty) = t.time("check.check", id, || {
            units_check::check_program(&expr, check_options())
        }) else {
            return Verdict::Failed;
        };
        let resolved = t.time("compile.resolve", id, || {
            units_compile::resolve_program(&expr)
        });
        let chunk = t.time("compile.lower", id, || {
            units_compile::lower_program(&resolved)
        });
        self.chunk_ops.push(chunk.code.len() as u64);
        let mut machine = Machine::new();
        let walked = t.time("compile.treewalk", id, || {
            units_compile::evaluate_program(&resolved, &mut machine)
        });
        let mut machine = Machine::new();
        let executed = t.time("runtime.vm", id, || {
            units_runtime::execute(&chunk, &mut machine)
        });
        self.fuel.push(machine.steps_taken());
        self.cells.push(machine.cells_allocated());
        let answers = [walked, executed].map(|r| r.map(|v| observe_value(&v)));
        if answers.iter().any(|a| a.as_ref() != Ok(&expected.value)) {
            return Verdict::Wrong;
        }

        // The store, with the entry shape the engine writes through on
        // its default backend (no chunk).
        let key = fnv1a_64(source.as_bytes());
        let entry = Entry {
            expr,
            ty,
            resolved: Some(resolved),
            chunk: None,
        };
        if self.written.insert(key) {
            let stored = t.time("store.write", id, || self.store.write(key, source, &entry));
            if !stored {
                return Verdict::Failed;
            }
        }
        let lookup = t.time("store.read", id, || self.store.read(key, source));
        let Ok(bytes) = std::fs::read(self.store.entry_path(key)) else {
            return Verdict::Failed;
        };
        self.entry_bytes.push(bytes.len() as u64);
        let decoded = t.time("store.decode", id, || {
            decode_entry(&bytes, key, STORE_FINGERPRINT)
        });
        match (lookup, decoded) {
            (Lookup::Hit(_), Ok(_)) => Verdict::Ok,
            _ => Verdict::Failed,
        }
    }

    /// Times one hot swap on the in-process service (and over the
    /// socket, when the swap is part of the workload's own stream).
    pub fn swap(&mut self, request: &Request, client: Option<&mut Client>, tenant: &Tenant) {
        let Request::Swap { name, source, sig } = request else {
            unreachable!("swap ops carry swap requests")
        };
        let id = self.op_id();
        let root = self.tracer.begin("swap", id);
        let mut verdict = Verdict::Ok;
        if let Some(client) = client {
            let response = self
                .tracer
                .time("serve.round_trip", id, || client.call(request));
            verdict = response
                .as_ref()
                .map_or(Verdict::Failed, |r| wire_verdict(r, None));
        }
        let swapped = self.tracer.time("serve.swap", id, || {
            tenant.swap_plugin(name, source, sig.as_deref())
        });
        if swapped.is_err() {
            verdict = Verdict::Failed;
        }
        self.tracer.end(root);
        self.tally.record(verdict);
    }

    /// The per-layer metrics this sweep measured, medians over ops.
    pub fn metrics(&self) -> Vec<Metric> {
        let by_name = self.tracer.self_ns_by_name();
        let us = |name: &'static str, span: &str| {
            let selfs = by_name.get(span).map_or(&[][..], Vec::as_slice);
            let samples = format!("self time of `{span}`, median of {} spans", selfs.len());
            Metric::new(name, median_or_nan(selfs) / 1e3, "us", samples)
        };
        let per_op = |name: &'static str, v: &[u64], scale: f64, unit: &'static str| {
            let samples = format!("median of {} ops", v.len());
            Metric::new(name, median_or_nan(v) / scale, unit, samples)
        };
        vec![
            us("serve.request_decode_us", "serve.request_decode"),
            us("serve.response_encode_us", "serve.response_encode"),
            us("serve.tenant_invoke_us", "serve.tenant_invoke"),
            per_op("serve.transport_us", &self.transport_ns, 1e3, "us"),
            us("serve.swap_us", "serve.swap"),
            per_op("serve.frame_bytes", &self.frame_bytes, 1.0, "bytes"),
            us("engine.load_us", "engine.load"),
            us("engine.run_us", "engine.run"),
            us("syntax.parse_us", "syntax.parse"),
            per_op("syntax.source_kb", &self.source_bytes, 1024.0, "KiB"),
            us("check.check_us", "check.check"),
            us("compile.resolve_us", "compile.resolve"),
            us("compile.lower_us", "compile.lower"),
            per_op("compile.chunk_ops", &self.chunk_ops, 1.0, "count"),
            us("compile.treewalk_us", "compile.treewalk"),
            us("runtime.vm_us", "runtime.vm"),
            per_op("runtime.fuel_per_op", &self.fuel, 1.0, "count"),
            per_op("runtime.cells_per_op", &self.cells, 1.0, "count"),
            us("store.read_us", "store.read"),
            us("store.decode_us", "store.decode"),
            per_op("store.entry_kb", &self.entry_bytes, 1024.0, "KiB"),
            us("store.write_us", "store.write"),
        ]
    }

    /// Writes the spans to `path` as JSON.
    pub fn dump(&self, path: &std::path::Path, workload: &str, seed: u64) -> Result<(), String> {
        std::fs::write(path, self.tracer.to_json(workload, seed))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}
