//! Seeded workload inputs: typed plug-ins with closed-form answers for
//! the `serve_*` workloads, and a corpus of distinct typed programs
//! for `compile_cold` and `store_warm`.
//!
//! Everything here is a pure function of the seed, so the same seed
//! gives byte-identical sources and argument streams.

use std::fmt::Write as _;

use bench::rng::SplitMix64;

/// An independent stream for sub-generator `tag` of `seed`.
fn fork(seed: u64, tag: u64) -> SplitMix64 {
    let mut base = SplitMix64::seed_from_u64(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
    SplitMix64::seed_from_u64(base.next_u64())
}

/// The signature every plug-in is published under (§3.4 dynamic link).
pub const PLUGIN_SIG: &str = "(sig (import) (export) (init (-> int int)))";

/// How a plug-in computes its answer; the benchmark's closed-form
/// oracle for the `serve_*` workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// `a·n + b` in a single unit.
    Affine { a: i64, b: i64 },
    /// A compound chaining `f0(x) = x + c0`, `fi(x) = f(i-1)(x) + ci`.
    Chain { consts: Vec<i64> },
    /// An even/odd cycle of two units run to a fixed depth: `n + p`
    /// when `depth` is even, `n - p` when odd.
    Cycle { depth: i64, p: i64 },
    /// A hub exporting `base(x) = m·x` and `k` spokes `gi(x) = base(x) + i`,
    /// summed: `k·m·n + k(k+1)/2`.
    Star { m: i64, k: i64 },
}

impl Shape {
    /// The closed-form answer for argument `n`.
    pub fn expected(&self, n: i64) -> i64 {
        match self {
            Shape::Affine { a, b } => a * n + b,
            Shape::Chain { consts } => n + consts.iter().sum::<i64>(),
            Shape::Cycle { depth, p } => {
                if depth % 2 == 0 {
                    n + p
                } else {
                    n - p
                }
            }
            Shape::Star { m, k } => k * m * n + k * (k + 1) / 2,
        }
    }
}

/// One published plug-in: a unit whose invoke result is an
/// `int -> int` function.
#[derive(Debug, Clone)]
pub struct Plugin {
    pub name: String,
    pub shape: Shape,
    /// Two sources with the same answers and different terms; a
    /// hot swap alternates between them.
    pub versions: [String; 2],
}

/// `int -> int` port declaration for `name`.
fn fn_port(name: &str) -> String {
    format!("({name} (-> int int))")
}

/// A unit whose initialization invokes `compound` and applies its
/// result, so every invoke of the plug-in instantiates and wires the
/// compound's units (§4.1.6).
fn compound_plugin(links: &str, variant: usize) -> String {
    let call = if variant == 0 { "(g n)" } else { "(+ 0 (g n))" };
    format!(
        "(unit (import) (export)\n  (init (let ((g (invoke (compound (import) (export)\n    (link {links})))))\n    (lambda ((n int)) {call}))))"
    )
}

/// The final link clause: a unit importing `ports` whose
/// initialization returns `body` as an `int -> int` function.
fn entry_clause(ports: &[String], body: &str) -> String {
    let ports = ports.join(" ");
    format!(
        "((unit (import {ports}) (export) (init (lambda ((x int)) {body})))\n      (with {ports}) (provides))"
    )
}

fn plugin_source(shape: &Shape, variant: usize) -> String {
    match shape {
        Shape::Affine { a, b } => {
            let body = if variant == 0 {
                format!("(+ (* n {a}) {b})")
            } else {
                format!("(+ {b} (* {a} n))")
            };
            format!("(unit (import) (export) (init (lambda ((n int)) {body})))")
        }
        Shape::Chain { consts } => {
            let mut links = String::new();
            let _ = write!(
                links,
                "((unit (import) (export {p}) (define f0 (-> int int) (lambda ((x int)) (+ x {c}))))\n      (with) (provides {p}))",
                p = fn_port("f0"),
                c = consts[0]
            );
            for (i, c) in consts.iter().enumerate().skip(1) {
                let (prev, this) = (fn_port(&format!("f{}", i - 1)), fn_port(&format!("f{i}")));
                let _ = write!(
                    links,
                    "\n     ((unit (import {prev}) (export {this}) (define f{i} (-> int int) (lambda ((x int)) (+ (f{j} x) {c}))))\n      (with {prev}) (provides {this}))",
                    j = i - 1
                );
            }
            let last = consts.len() - 1;
            let _ = write!(
                links,
                "\n     {}",
                entry_clause(&[fn_port(&format!("f{last}"))], &format!("(f{last} x)"))
            );
            compound_plugin(&links, variant)
        }
        Shape::Cycle { depth, p } => {
            let (ev, od) = ("(ev (-> int bool))", "(od (-> int bool))");
            let links = format!(
                "((unit (import {od}) (export {ev})\n        (define ev (-> int bool) (lambda ((n int)) (if (= n 0) true (od (- n 1))))))\n      (with {od}) (provides {ev}))\n     ((unit (import {ev}) (export {od})\n        (define od (-> int bool) (lambda ((n int)) (if (= n 0) false (ev (- n 1))))))\n      (with {ev}) (provides {od}))\n     {}",
                entry_clause(&[ev.to_string()], &format!("(if (ev {depth}) (+ x {p}) (- x {p}))"))
            );
            compound_plugin(&links, variant)
        }
        Shape::Star { m, k } => {
            let mut links = format!(
                "((unit (import) (export {b}) (define base (-> int int) (lambda ((x int)) (* x {m}))))\n      (with) (provides {b}))",
                b = fn_port("base")
            );
            let mut spokes = Vec::new();
            for i in 1..=*k {
                let g = fn_port(&format!("g{i}"));
                let _ = write!(
                    links,
                    "\n     ((unit (import {b}) (export {g}) (define g{i} (-> int int) (lambda ((x int)) (+ (base x) {i}))))\n      (with {b}) (provides {g}))",
                    b = fn_port("base")
                );
                spokes.push(g);
            }
            let sum = (1..=*k).fold(String::from("0"), |acc, i| format!("(+ {acc} (g{i} x))"));
            let _ = write!(links, "\n     {}", entry_clause(&spokes, &sum));
            compound_plugin(&links, variant)
        }
    }
}

/// The seeded plug-in set of tenant `tenant`: one plug-in of each
/// shape, so invokes both run plain arithmetic and instantiate linked
/// compounds. Sizes are fixed and the seed draws the constants, so
/// every seed asks the same work of the daemon.
pub fn plugins(seed: u64, tenant: u64) -> Vec<Plugin> {
    let mut rng = fork(seed, 0x100 + tenant);
    let shapes = [
        Shape::Affine {
            a: rng.gen_range_i64(2, 10),
            b: rng.gen_range_i64(-500, 501),
        },
        Shape::Chain {
            consts: (0..4).map(|_| rng.gen_range_i64(1, 100)).collect(),
        },
        Shape::Cycle {
            depth: rng.gen_range_i64(32, 34),
            p: rng.gen_range_i64(1, 1000),
        },
        Shape::Star {
            m: rng.gen_range_i64(2, 10),
            k: 4,
        },
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, shape)| Plugin {
            name: format!("p{i}"),
            versions: [plugin_source(&shape, 0), plugin_source(&shape, 1)],
            shape,
        })
        .collect()
}

/// The source of `((invoke plugin) n)`: the term the service builds for
/// an invoke with an argument.
pub fn invoke_source(plugin_source: &str, n: i64) -> String {
    format!("((invoke {plugin_source}) {n})")
}

/// The small argument set `serve_hot` draws from: after warm-up every
/// (plug-in, argument) pair is an engine cache hit.
pub fn hot_args(seed: u64, tenant: u64) -> Vec<i64> {
    let mut rng = fork(seed, 0x200 + tenant);
    let mut args = Vec::new();
    while args.len() < 4 {
        let n = rng.gen_range_i64(-100, 101);
        if !args.contains(&n) {
            args.push(n);
        }
    }
    args
}

/// One request of a `serve_*` op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Invoke plug-in `plugin` (an index) on `arg`.
    Invoke { plugin: usize, arg: i64 },
    /// Hot-swap plug-in 0 to the given version.
    Swap { version: usize },
}

/// Every `SWAP_EVERY`-th `serve_fresh` request is a hot swap.
pub const SWAP_EVERY: u64 = 64;

/// An endless seeded op stream for one connection.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    fresh: bool,
    hot: Vec<i64>,
    plugins: usize,
    next_fresh: i64,
    issued: u64,
    swaps: u64,
}

impl OpStream {
    /// `serve_hot` draws arguments from [`hot_args`]; `serve_fresh`
    /// gives every invoke an argument never used before in the run
    /// (fresh arguments start above any hot one) and swaps every
    /// [`SWAP_EVERY`]-th request.
    pub fn new(seed: u64, conn: u64, fresh: bool, plugins: usize) -> OpStream {
        let mut rng = fork(seed, 0x300 + conn);
        let next_fresh = 1_000_000 * (conn as i64 + 1) + rng.gen_range_i64(0, 1000);
        OpStream {
            rng,
            fresh,
            hot: hot_args(seed, conn),
            plugins,
            next_fresh,
            issued: 0,
            swaps: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = ServeOp;

    fn next(&mut self) -> Option<ServeOp> {
        self.issued += 1;
        if self.fresh && self.issued.is_multiple_of(SWAP_EVERY) {
            self.swaps += 1;
            return Some(ServeOp::Swap {
                version: (self.swaps % 2) as usize,
            });
        }
        let plugin = self.rng.gen_range(0, self.plugins);
        let arg = if self.fresh {
            self.next_fresh += 1 + self.rng.gen_range_i64(0, 3);
            self.next_fresh
        } else {
            self.hot[self.rng.gen_range(0, self.hot.len())]
        };
        Some(ServeOp::Invoke { plugin, arg })
    }
}

/// How many programs one `compile_cold` / `store_warm` pass invokes.
pub const CORPUS_SIZE: usize = 40;

/// `count` sizes spread evenly over `lo..=hi`, ascending.
fn ladder(lo: i64, hi: i64, count: usize) -> Vec<i64> {
    let steps = (count.max(2) - 1) as i64;
    (0..count as i64)
        .map(|j| lo + (hi - lo) * j / steps)
        .collect()
}

/// The seeded corpus: `CORPUS_SIZE` distinct typed programs cycling
/// through chain, ring and star compounds, first-class units and deep
/// `let`s. Each shape comes in a fixed ladder of sizes at fixed
/// positions, and the seed draws only the constants, so every seed asks
/// the same work of the engine, in the same order: which program comes
/// first in a pass, on a fresh engine, moves the tail latency. Program `i` carries the unique
/// constant `1000 + i`, so no two are alpha-equal.
pub fn programs(seed: u64) -> Vec<String> {
    let mut rng = fork(seed, 0x400);
    let per_shape = CORPUS_SIZE / 5;
    let chain = ladder(2, 12, per_shape);
    let ring = ladder(2, 6, per_shape);
    let depth = ladder(10, 60, per_shape);
    let star = ladder(2, 10, per_shape);
    let first_class = ladder(2, 8, per_shape);
    let deep = ladder(10, 120, per_shape);
    (0..CORPUS_SIZE)
        .map(|i| {
            let (tag, j) = (1000 + i as i64, i / 5);
            match i % 5 {
                0 => chain_program(&mut rng, tag, chain[j]),
                1 => ring_program(tag, ring[j], depth[j]),
                2 => star_program(&mut rng, tag, star[j]),
                3 => first_class_program(&mut rng, tag, first_class[j]),
                _ => deep_let_program(&mut rng, tag, deep[j]),
            }
        })
        .collect()
}

fn chain_program(rng: &mut SplitMix64, tag: i64, n: i64) -> String {
    let mut consts = vec![tag];
    consts.extend((1..n).map(|_| rng.gen_range_i64(1, 100)));
    let plugin = plugin_source(&Shape::Chain { consts }, 0);
    invoke_source(&plugin, rng.gen_range_i64(-50, 51))
}

/// A ring of `k` units, each `ri(n)` calling the next down to zero.
fn ring_program(tag: i64, k: i64, depth: i64) -> String {
    let k = k as usize;
    let port = |i: usize| format!("(r{} (-> int int))", i % k);
    let mut links = String::new();
    for i in 0..k {
        let body = format!("(if (= n 0) {tag} (+ 1 (r{} (- n 1))))", (i + 1) % k);
        let init = if i == k - 1 {
            format!("(init (r0 {depth}))")
        } else {
            String::new()
        };
        let _ = write!(
            links,
            "\n    ((unit (import {next}) (export {this}) (define r{i} (-> int int) (lambda ((n int)) {body})) {init})\n     (with {next}) (provides {this}))",
            next = port(i + 1),
            this = port(i)
        );
    }
    format!("(invoke (compound (import) (export) (link {links})))")
}

fn star_program(rng: &mut SplitMix64, tag: i64, k: i64) -> String {
    let plugin = plugin_source(&Shape::Star { m: tag, k }, 0);
    invoke_source(&plugin, rng.gen_range_i64(-50, 51))
}

/// A unit-producing function applied `m` times: units as first-class
/// values, each instance invoked separately.
fn first_class_program(rng: &mut SplitMix64, tag: i64, m: i64) -> String {
    let sum = (0..m).fold(String::from("0"), |acc, i| {
        format!(
            "(+ {acc} (invoke (mk {})))",
            rng.gen_range_i64(-99, 100) + i
        )
    });
    format!(
        "(let ((mk (lambda ((n int)) (unit (import) (export) (init (+ (* n 2) {tag}))))))\n  {sum})"
    )
}

fn deep_let_program(rng: &mut SplitMix64, tag: i64, depth: i64) -> String {
    let mut src = format!("(let ((x0 {tag}))");
    for i in 1..depth {
        let _ = write!(
            src,
            "\n (let ((x{i} (+ x{} {})))",
            i - 1,
            rng.gen_range_i64(-9, 10)
        );
    }
    let _ = write!(src, " x{}", depth - 1);
    src.push_str(&")".repeat(depth as usize));
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        assert_eq!(programs(7), programs(7));
        let a: Vec<_> = plugins(7, 0).into_iter().map(|p| p.versions).collect();
        let b: Vec<_> = plugins(7, 0).into_iter().map(|p| p.versions).collect();
        assert_eq!(a, b);
        for fresh in [false, true] {
            let x: Vec<ServeOp> = OpStream::new(7, 1, fresh, 4).take(500).collect();
            let y: Vec<ServeOp> = OpStream::new(7, 1, fresh, 4).take(500).collect();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(programs(7), programs(8));
        let a: Vec<_> = plugins(7, 0).into_iter().map(|p| p.versions).collect();
        let b: Vec<_> = plugins(8, 0).into_iter().map(|p| p.versions).collect();
        assert_ne!(a, b);
        for fresh in [false, true] {
            let x: Vec<ServeOp> = OpStream::new(7, 0, fresh, 4).take(500).collect();
            let y: Vec<ServeOp> = OpStream::new(8, 0, fresh, 4).take(500).collect();
            assert_ne!(x, y);
        }
    }

    #[test]
    fn fresh_streams_never_repeat_an_argument_and_swap_on_schedule() {
        let ops: Vec<ServeOp> = OpStream::new(3, 0, true, 4).take(10_000).collect();
        let mut args: Vec<i64> = ops
            .iter()
            .filter_map(|op| match op {
                ServeOp::Invoke { arg, .. } => Some(*arg),
                ServeOp::Swap { .. } => None,
            })
            .collect();
        let swaps = ops.len() - args.len();
        assert_eq!(swaps as u64, 10_000 / SWAP_EVERY);
        let n = args.len();
        args.sort_unstable();
        args.dedup();
        assert_eq!(args.len(), n, "a fresh argument repeated");
        let hot = hot_args(3, 0);
        assert!(args.iter().all(|a| !hot.contains(a)));
    }

    /// The closed forms agree with the Fig. 11 reference reducer on
    /// both versions of every plug-in shape.
    #[test]
    fn closed_forms_match_the_reference_reducer() {
        let reducer = units::Engine::builder()
            .level(units::Level::Constructed)
            .backend(units::Backend::Reducer)
            .build();
        for p in plugins(5, 0).iter().chain(&plugins(6, 1)) {
            for version in &p.versions {
                for n in [-7, 0, 1_000_003] {
                    let got = reducer.invoke(&invoke_source(version, n)).unwrap().value;
                    assert_eq!(
                        got,
                        units::Observation::Int(p.shape.expected(n)),
                        "{}",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn ladders_spread_their_sizes_evenly() {
        assert_eq!(ladder(2, 12, 8), vec![2, 3, 4, 6, 7, 9, 10, 12]);
    }

    #[test]
    fn the_corpus_is_distinct() {
        let mut corpus = programs(11);
        corpus.sort();
        corpus.dedup();
        assert_eq!(corpus.len(), CORPUS_SIZE);
    }
}
