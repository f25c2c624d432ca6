//! Traced layer runner for the file-to-verdict benchmark.
//!
//! Replays one query of a workload in-process by calling each layer's
//! public function in the order the `gfab` CLI does, and records a span
//! around every call from the outside: name, start, end, parent span and
//! query id. The query's calls sit under the root span of query `q0`; the
//! generator calls the workload's set-up makes with `gfab gen` sit under
//! the root span `setup`. Layers a workload does not reach get no span.
//! Spans are kept in memory and written out as one JSON document when the
//! run ends, together with the work counts the layers return and the
//! allocation counts of a counting allocator.
//!
//! ```text
//! perfbench-trace --mode extract|hier|refute --modulus 571,10,5,2,0 \
//!     --spec SPEC.nl [--impl IMPL.nl] [--manifest M.json] --out spans.json
//! ```

use gfab::cache::CachingExtract;
use gfab::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
use gfab::core::hier::extract_hierarchical_budgeted_with;
use gfab::core::model::CircuitModel;
use gfab::core::{CoreError, ExtractOptions, ExtractProvider, ExtractionResult};
use gfab::engine::{BatchOp, OwnedCircuit};
use gfab::field::budget::Budget;
use gfab::field::{kernel, Gf2Poly, GfContext, Rng};
use gfab::netlist::{format as nlformat, Netlist};
use gfab::poly::reduce::Reducer;
use gfab::poly::{Poly, VarKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counts allocations and tracks live and peak-live heap bytes. The
/// runner is single-threaded, so the counters use plain relaxed loads and
/// stores rather than read-modify-write atomics: the tracing overhead this
/// adds to every allocation stays small.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
    let live = LIVE.load(Relaxed) + bytes;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed) - bytes, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation count and peak live bytes over one call.
struct AllocWindow {
    allocs: u64,
}

impl AllocWindow {
    fn open() -> AllocWindow {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
        AllocWindow {
            allocs: ALLOCS.load(Relaxed),
        }
    }
    /// `(allocations, peak live MB)` since `open`.
    fn close(self) -> (u64, f64) {
        (
            ALLOCS.load(Relaxed) - self.allocs,
            PEAK.load(Relaxed) as f64 / 1e6,
        )
    }
}

struct Span {
    name: &'static str,
    query: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder; `begin`/`end` nest like a stack.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: &'static str,
    counts: Vec<(String, f64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: "",
            counts: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn begin(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            query: self.query,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end = self.now();
    }

    /// Records a span measured elsewhere as a child of the open span.
    fn record(&mut self, name: &'static str, start: f64, end: f64) {
        self.spans.push(Span {
            name,
            query: self.query,
            parent: self.open.last().copied(),
            start,
            end,
        });
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Opens the root span of a query; every span until `end` belongs to it.
    fn root(&mut self, query: &'static str) {
        assert!(self.open.is_empty(), "query roots do not nest");
        self.query = query;
        self.begin("query");
    }

    /// Records a count; counts of the same name add up (a query that
    /// parses two files reports the bytes of both).
    fn count(&mut self, name: &str, value: f64) {
        match self.counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counts.push((name.to_string(), value)),
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"query\":\"{}\",\"parent\":{parent},\"start\":{:.9},\"end\":{:.9}}}",
                sp.name, sp.query, sp.start, sp.end
            );
        }
        s.push_str("],\"counts\":{");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{v}");
        }
        s.push_str("}}\n");
        s
    }
}

struct Args {
    mode: String,
    modulus: Vec<usize>,
    spec: String,
    impl_: Option<String>,
    manifest: Option<String>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let modulus = need("--modulus")?
        .split(',')
        .map(|e| e.parse().map_err(|_| format!("bad exponent {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Args {
        mode: need("--mode")?,
        modulus,
        spec: need("--spec")?,
        impl_: get("--impl"),
        manifest: get("--manifest"),
        out: need("--out")?,
    })
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn parse(tr: &mut Tracer, text: &str) -> Netlist {
    let nl = tr
        .timed("netlist.parse", || nlformat::parse(text))
        .expect("netlist parses");
    tr.count("netlist.parse_bytes", text.len() as f64);
    nl
}

/// Model build and guided reduction of a flat netlist, each in its own
/// span with allocation counts; asserts the Case-1 canonical outcome.
fn flat_extract(tr: &mut Tracer, nl: &Netlist, ctx: &Arc<GfContext>) -> (CircuitModel, Poly) {
    let window = AllocWindow::open();
    let model = tr
        .timed("model.build", || CircuitModel::build(nl, ctx))
        .expect("model builds");
    let (allocs, peak) = window.close();
    tr.count("model.gates", nl.num_gates() as f64);
    tr.count("model.allocs", allocs as f64);
    tr.count("model.peak_live_mb", peak);

    let window = AllocWindow::open();
    let (r, stats) = tr
        .timed("reduce.normal_form", || {
            Reducer::new(&model.ring, model.divisors())
                .normal_form_with_stats(&model.output_word_poly)
        })
        .expect("normal form");
    let (allocs, peak) = window.close();
    tr.count("reduce.steps", stats.steps as f64);
    tr.count("reduce.peak_terms", stats.peak_terms as f64);
    tr.count("reduce.allocs", allocs as f64);
    tr.count("reduce.peak_live_mb", peak);
    let word_only = r
        .variables()
        .iter()
        .all(|&v| model.ring.var_info(v).kind != VarKind::Bit);
    assert!(word_only, "remainder of {} keeps bit variables", nl.name());
    (model, r)
}

/// Coefficient multiplies the field kernels counted since `before`.
fn coeff_muls_since(tr: &mut Tracer, before: &gfab::field::KernelCounts) {
    let muls = kernel::snapshot().delta_since(before).coeff_muls;
    tr.count("field.coeff_muls", muls as f64);
}

/// `GfContext::mul` on seeded random elements of the field, in ns/mul.
/// A kernel figure, measured after the query and outside every span.
fn coeff_mul(tr: &mut Tracer, ctx: &GfContext) {
    const MULS: usize = 200_000;
    let mut rng = Rng::seed_from_u64(0x5EED);
    let xs: Vec<_> = (0..64).map(|_| ctx.random(&mut rng)).collect();
    let mut acc = xs[0].clone();
    let t = Instant::now();
    for i in 0..MULS {
        acc = ctx.mul(&acc, &xs[i % xs.len()]);
    }
    tr.count(
        "field.coeff_mul_ns",
        t.elapsed().as_nanos() as f64 / MULS as f64,
    );
    std::hint::black_box(acc);
}

fn context(tr: &mut Tracer, modulus: &Gf2Poly) -> Arc<GfContext> {
    tr.timed("field.context", || GfContext::shared(modulus.clone()))
        .expect("modulus is irreducible")
}

/// The generator calls of the workload's set-up, as `gfab gen` makes
/// them: the Mastrovito spec, and on refute the flattened Montgomery.
fn run_setup(tr: &mut Tracer, modulus: &Gf2Poly, montgomery: bool) {
    tr.root("setup");
    let ctx = GfContext::shared(modulus.clone()).expect("modulus is irreducible");
    let spec = tr.timed("circuits.gen", || mastrovito_multiplier(&ctx));
    if montgomery {
        let impl_ = tr.timed("circuits.gen", || {
            montgomery_multiplier_hier(&ctx).flatten()
        });
        drop(impl_);
    }
    drop(spec);
    tr.end();
}

/// `gfab extract` of a flat multiplier.
fn run_extract(tr: &mut Tracer, a: &Args, modulus: &Gf2Poly) {
    run_setup(tr, modulus, false);
    tr.root("q0");
    let text = read(&a.spec);
    let nl = parse(tr, &text);
    let ctx = context(tr, modulus);
    let before = kernel::snapshot();
    let (model, r) = flat_extract(tr, &nl, &ctx);
    coeff_muls_since(tr, &before);
    tr.timed("process.drop", || drop((r, model, nl, text)));
    tr.end();
    coeff_mul(tr, &ctx);
}

/// The batch engine's caching provider, with the extraction of the
/// two-operand (middle) block timed from outside: `extract_hierarchical`
/// runs every block inside one call, so the block can be split off only
/// at the provider it calls.
struct MidBlockTimer {
    inner: CachingExtract,
    t0: Instant,
    window: Mutex<Option<(f64, f64)>>,
}

impl ExtractProvider for MidBlockTimer {
    fn extract(
        &self,
        nl: &Netlist,
        ctx: &Arc<GfContext>,
        options: &ExtractOptions,
        budget: &Budget,
    ) -> Result<ExtractionResult, CoreError> {
        if nl.input_words().len() != 2 {
            return self.inner.extract(nl, ctx, options, budget);
        }
        let start = self.t0.elapsed().as_secs_f64();
        let r = self.inner.extract(nl, ctx, options, budget);
        *self.window.lock().expect("timer lock") = Some((start, self.t0.elapsed().as_secs_f64()));
        r
    }
}

/// `gfab batch` of flat Mastrovito against the hierarchical Montgomery,
/// through the same caching provider the batch engine uses.
fn run_hier(tr: &mut Tracer, a: &Args, modulus: &Gf2Poly) {
    let manifest = a
        .manifest
        .as_deref()
        .expect("--manifest is required for hier");
    run_setup(tr, modulus, false);
    tr.root("q0");
    let queries = tr
        .timed("engine.manifest_load", || {
            gfab::manifest::load_manifest(manifest)
        })
        .expect("manifest loads");
    let [query] = queries.as_slice() else {
        panic!("manifest must hold one query")
    };
    let BatchOp::Equiv {
        spec,
        impl_: OwnedCircuit::Hier(design),
    } = &query.op
    else {
        panic!("manifest query must be equiv against a hierarchical design")
    };
    let ctx = context(tr, modulus);
    let before = kernel::snapshot();
    let (model, r) = flat_extract(tr, spec, &ctx);
    let provider = MidBlockTimer {
        inner: CachingExtract::new(16),
        t0: tr.t0,
        window: Mutex::new(None),
    };
    tr.begin("hier.extract");
    let h = extract_hierarchical_budgeted_with(
        &provider,
        design,
        &ctx,
        &ExtractOptions::default().with_threads(1),
        &Budget::unlimited(),
    )
    .expect("hierarchical extraction");
    let (start, end) = provider
        .window
        .lock()
        .expect("timer lock")
        .expect("the design has a two-operand block");
    tr.record("hier.mid_block", start, end);
    tr.end();
    coeff_muls_since(tr, &before);
    assert_eq!(
        h.function.display().to_string(),
        "A*B",
        "hierarchical Montgomery is not A*B"
    );
    tr.timed("process.drop", || drop((h, provider, r, model, queries)));
    tr.end();
    coeff_mul(tr, &ctx);
}

/// `gfab equiv` of the flat spec against a faulted flat implementation:
/// the 64-vector pre-check (same seed as `gfab`) refutes the pair before
/// any algebra runs.
fn run_refute(tr: &mut Tracer, a: &Args, modulus: &Gf2Poly) {
    let impl_path = a.impl_.as_deref().expect("--impl is required for refute");
    run_setup(tr, modulus, true);
    tr.root("q0");
    let spec_text = read(&a.spec);
    let impl_text = read(impl_path);
    let spec = parse(tr, &spec_text);
    let impl_ = parse(tr, &impl_text);
    let ctx = context(tr, modulus);
    let mut rng = Rng::seed_from_u64(0xFA57);
    let refuted = tr
        .timed("netlist.sim", || {
            gfab::netlist::sim::random_equivalence_check(&spec, &impl_, &ctx, 64, &mut rng)
        })
        .is_err();
    assert!(refuted, "pre-check missed the fault");
    tr.timed("process.drop", || drop((spec, impl_, spec_text, impl_text)));
    tr.end();
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(2);
        }
    };
    let modulus = Gf2Poly::from_exponents(&args.modulus);
    let mut tr = Tracer::new();
    match args.mode.as_str() {
        "extract" => run_extract(&mut tr, &args, &modulus),
        "hier" => run_hier(&mut tr, &args, &modulus),
        "refute" => run_refute(&mut tr, &args, &modulus),
        other => {
            eprintln!("perfbench-trace: unknown mode {other}");
            std::process::exit(2);
        }
    }
    std::fs::write(&args.out, tr.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
}
