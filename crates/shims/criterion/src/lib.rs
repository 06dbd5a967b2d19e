//! Offline shim for `criterion`.
//!
//! Implements the slice of the Criterion API this workspace's benches use
//! (`benchmark_group`, `bench_function`, `iter` / `iter_batched`,
//! `Throughput::Elements`, the `criterion_group!`/`criterion_main!`
//! macros) on a plain wall-clock harness:
//!
//! * warm up for `warm_up_time`, then time batches until `measurement_time`
//!   elapses and report the mean ns/iteration (no outlier analysis),
//! * print one line per benchmark in a Criterion-like format, including
//!   element throughput when configured,
//! * append every result to a JSON report. The path is
//!   `$CRITERION_OUTPUT_JSON` when set, else
//!   `target/criterion/<bench-binary>.json` — CI uploads this artifact.
//!
//! Quick mode (`--quick` argument, or `CRITERION_QUICK=1`) shrinks warm-up
//! and measurement windows ~10x for smoke runs.
//!
//! `CRITERION_FILTER=<substring>` skips every benchmark whose
//! `group/id` label does not contain the substring — the environment
//! counterpart of real criterion's positional filter argument, for
//! targeted local measurement runs
//! (`CRITERION_FILTER=compact-vs-stream-summary cargo bench -p hhh-bench
//! --bench update_speed`).

use std::fmt::Write as _;
use std::hint;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value sink, mirroring `criterion::black_box`.
#[inline]
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements (packets, keys, …) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// How `iter_batched` sizes its batches. The shim always runs one input per
/// timed call, so the variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small setup output; many per batch in real criterion.
    SmallInput,
    /// Large setup output; one per batch.
    LargeInput,
    /// Setup output consumed per iteration.
    PerIteration,
}

/// Benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    #[must_use]
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }

    /// Identifier that is just the parameter.
    #[must_use]
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

#[derive(Debug, Clone)]
struct Record {
    group: String,
    id: String,
    mean_ns: f64,
    iters: u64,
    elements: Option<u64>,
}

static RESULTS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Measurement settings shared by a group.
#[derive(Debug, Clone, Copy)]
struct Settings {
    warm_up: Duration,
    measurement: Duration,
    quick: bool,
}

impl Settings {
    fn effective_warm_up(&self) -> Duration {
        if self.quick {
            self.warm_up.min(Duration::from_millis(30))
        } else {
            self.warm_up
        }
    }

    fn effective_measurement(&self) -> Duration {
        if self.quick {
            self.measurement.min(Duration::from_millis(150))
        } else {
            self.measurement
        }
    }
}

/// Shim of `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    settings: Settings,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            settings: Settings {
                warm_up: Duration::from_secs(3),
                measurement: Duration::from_secs(5),
                quick: std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0"),
            },
        }
    }
}

impl Criterion {
    /// Applies command-line arguments; recognises `--quick`, ignores the
    /// arguments cargo-bench passes through (`--bench`, filters).
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        if std::env::args().any(|a| a == "--quick") {
            self.settings.quick = true;
        }
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            settings: self.settings,
            throughput: None,
        }
    }

    /// One-off benchmark without a group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        mut f: F,
    ) -> &mut Self {
        let settings = self.settings;
        run_one("", &id.to_string(), settings, None, &mut f);
        self
    }
}

/// Shim of `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a Criterion,
    name: String,
    settings: Settings,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes samples by wall time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the warm-up window.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up = d;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement = d;
        self
    }

    /// Declares per-iteration throughput for derived rates.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        mut f: F,
    ) -> &mut Self {
        run_one(
            &self.name,
            &id.to_string(),
            self.settings,
            self.throughput,
            &mut f,
        );
        self
    }

    /// Shim extension (no real-criterion counterpart): measures two
    /// benchmarks in alternating time slices and reports each as its own
    /// record, exactly as if it had run alone.
    ///
    /// Sequential measurement windows make A-vs-B ratios hostage to
    /// whatever the clock frequency and cache climate did *between* the
    /// windows — on this workspace's shared boxes that drift reaches ±8%
    /// per minute, swamping single-digit wins. Interleaving spreads both
    /// sides' samples across the same wall-clock span, so slow drift
    /// cancels out of the ratio and only the fast (averaged-out) noise
    /// remains. Each side reports the median of its per-round means, so a
    /// contention burst that lands inside a handful of slices is discarded
    /// rather than charged to one side. Use it for any row pair whose
    /// *ratio* is the deliverable, e.g. the `wire_ingest` raw-vs-struct
    /// rows.
    pub fn bench_pair_interleaved<FA, FB>(
        &mut self,
        id_a: impl std::fmt::Display,
        mut fa: FA,
        id_b: impl std::fmt::Display,
        mut fb: FB,
    ) -> &mut Self
    where
        FA: FnMut(&mut Bencher),
        FB: FnMut(&mut Bencher),
    {
        run_pair(
            &self.name,
            &id_a.to_string(),
            &mut fa,
            &id_b.to_string(),
            &mut fb,
            self.settings,
            self.throughput,
        );
        self
    }

    /// Ends the group (reporting happens per-benchmark).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher) + ?Sized>(
    group: &str,
    id: &str,
    settings: Settings,
    throughput: Option<Throughput>,
    f: &mut F,
) {
    if let Ok(filter) = std::env::var("CRITERION_FILTER") {
        if !filter_allows(&filter, group, id) {
            return;
        }
    }

    // Warm-up phase.
    let mut b = Bencher {
        deadline: Instant::now() + settings.effective_warm_up(),
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);

    // Measurement phase.
    let mut b = Bencher {
        deadline: Instant::now() + settings.effective_measurement(),
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);

    report(group, id, throughput, b.total, b.iters);
}

/// Alternating slices per side within one measurement window; enough
/// rounds that slow drift averages into both sides equally and the
/// per-round median has a real sample population behind it.
const PAIR_ROUNDS: u32 = 16;

fn run_pair(
    group: &str,
    id_a: &str,
    fa: &mut dyn FnMut(&mut Bencher),
    id_b: &str,
    fb: &mut dyn FnMut(&mut Bencher),
    settings: Settings,
    throughput: Option<Throughput>,
) {
    let (allow_a, allow_b) = match std::env::var("CRITERION_FILTER") {
        Ok(f) => (
            filter_allows(&f, group, id_a),
            filter_allows(&f, group, id_b),
        ),
        Err(_) => (true, true),
    };
    match (allow_a, allow_b) {
        (false, false) => return,
        (true, false) => return run_one(group, id_a, settings, throughput, fa),
        (false, true) => return run_one(group, id_b, settings, throughput, fb),
        (true, true) => {}
    }

    fn slice_run(f: &mut dyn FnMut(&mut Bencher), window: Duration) -> (Duration, u64) {
        let mut b = Bencher {
            deadline: Instant::now() + window,
            total: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        (b.total, b.iters)
    }

    // Warm both sides: half the window each, so neither side starts
    // cache-cold in round one.
    let half_warm = settings.effective_warm_up() / 2;
    slice_run(fa, half_warm);
    slice_run(fb, half_warm);

    // Each side reports the MEDIAN of its per-round means, not the global
    // mean: on a box where a noisy neighbour can double one slice's wall
    // time, the global mean hands whole bursts to whichever side they
    // landed on, while the per-round median discards them symmetrically.
    let slice = settings.effective_measurement() / (2 * PAIR_ROUNDS);
    let mut rounds_a = Vec::with_capacity(PAIR_ROUNDS as usize);
    let mut rounds_b = Vec::with_capacity(PAIR_ROUNDS as usize);
    let mut iters = [0u64; 2];
    for _ in 0..PAIR_ROUNDS {
        let (t, i) = slice_run(fa, slice);
        rounds_a.push(t.as_nanos() as f64 / i.max(1) as f64);
        iters[0] += i;
        let (t, i) = slice_run(fb, slice);
        rounds_b.push(t.as_nanos() as f64 / i.max(1) as f64);
        iters[1] += i;
    }

    report_mean(group, id_a, throughput, median(&mut rounds_a), iters[0]);
    report_mean(group, id_b, throughput, median(&mut rounds_b), iters[1]);
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Prints one Criterion-style result line and appends the JSON record.
fn report(group: &str, id: &str, throughput: Option<Throughput>, total: Duration, iters: u64) {
    let iters = iters.max(1);
    let mean_ns = total.as_nanos() as f64 / iters as f64;
    report_mean(group, id, throughput, mean_ns, iters);
}

/// Reporting tail shared by the mean (single-row) and median (pair-row)
/// paths; `mean_ns` is whatever per-iteration statistic the caller chose.
fn report_mean(group: &str, id: &str, throughput: Option<Throughput>, mean_ns: f64, iters: u64) {
    let iters = iters.max(1);
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let mut line = format!("{label:<60} time: [{}]", format_ns(mean_ns));
    let elements = match throughput {
        Some(Throughput::Elements(n)) => {
            let rate = n as f64 / (mean_ns * 1e-9);
            let _ = write!(line, "  thrpt: [{} elem/s]", format_rate(rate));
            Some(n)
        }
        Some(Throughput::Bytes(n)) => {
            let rate = n as f64 / (mean_ns * 1e-9);
            let _ = write!(line, "  thrpt: [{} B/s]", format_rate(rate));
            Some(n)
        }
        None => None,
    };
    println!("{line}");

    RESULTS.lock().expect("results lock").push(Record {
        group: group.to_string(),
        id: id.to_string(),
        mean_ns,
        iters,
        elements,
    });
}

/// Whether a `CRITERION_FILTER` substring admits the benchmark labelled
/// `group/id` (or bare `id` outside a group). An empty filter admits
/// everything.
fn filter_allows(filter: &str, group: &str, id: &str) -> bool {
    if filter.is_empty() {
        return true;
    }
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    label.contains(filter)
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.4} ns")
    }
}

fn format_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.4} G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.4} M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.4} K", rate / 1e3)
    } else {
        format!("{rate:.4} ")
    }
}

/// Shim of `criterion::Bencher`: times closures until the group's
/// measurement window closes.
pub struct Bencher {
    deadline: Instant,
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        loop {
            let t0 = Instant::now();
            let out = routine();
            self.total += t0.elapsed();
            drop(out);
            self.iters += 1;
            if Instant::now() >= self.deadline {
                break;
            }
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup and drop of the
    /// routine output stay outside the timed region.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        loop {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            self.total += t0.elapsed();
            drop(out);
            self.iters += 1;
            if Instant::now() >= self.deadline {
                break;
            }
        }
    }

    /// Like [`Bencher::iter_batched`] with a by-reference routine.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        loop {
            let mut input = setup();
            let t0 = Instant::now();
            let out = routine(&mut input);
            self.total += t0.elapsed();
            drop(out);
            self.iters += 1;
            if Instant::now() >= self.deadline {
                break;
            }
        }
    }
}

/// Anchors a relative report path at the workspace root — the outermost
/// ancestor of the current directory whose `Cargo.toml` declares
/// `[workspace]`. Cargo runs bench binaries with cwd = the *package*
/// root, so without this `CRITERION_OUTPUT_JSON=BENCH_x.json` would land
/// in `crates/bench/` while CI's assert/upload steps (which run at the
/// repo root) look for it at the top level. Absolute paths pass through.
fn anchor_at_workspace_root(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut root = None;
    for dir in cwd.ancestors() {
        if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                root = Some(dir.to_path_buf());
            }
        }
    }
    root.unwrap_or(cwd).join(p)
}

/// Not public API; used by `criterion_main!` to emit the JSON report.
#[doc(hidden)]
pub fn __write_report() {
    let records = RESULTS.lock().expect("results lock");
    let path = std::env::var("CRITERION_OUTPUT_JSON").unwrap_or_else(|_| {
        let stem = std::env::args()
            .next()
            .and_then(|p| {
                std::path::Path::new(&p)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "bench".to_string());
        // cargo names bench binaries `<name>-<16 hex chars>`; strip the hash.
        let stem = match stem.rsplit_once('-') {
            Some((base, suffix))
                if suffix.len() == 16 && suffix.bytes().all(|b| b.is_ascii_hexdigit()) =>
            {
                base.to_string()
            }
            _ => stem,
        };
        format!("target/criterion/{stem}.json")
    });
    let path = anchor_at_workspace_root(&path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let elems = r.elements.map_or("null".to_string(), |e| e.to_string());
        let _ = writeln!(
            json,
            "  {{\"group\": \"{}\", \"id\": \"{}\", \"mean_ns\": {:.3}, \"iters\": {}, \"elements\": {}}}{}",
            r.group.escape_default(),
            r.id.escape_default(),
            r.mean_ns,
            r.iters,
            elems,
            sep
        );
    }
    json.push_str("]\n");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("criterion shim: cannot write {}: {e}", path.display());
    } else {
        println!("criterion shim: wrote {}", path.display());
    }
}

/// Declares a benchmark group runner, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::__write_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_paths_anchor_at_the_workspace_root() {
        // Test binaries run with cwd = this package's root; the anchored
        // path must climb to the outermost [workspace] manifest instead.
        let anchored = anchor_at_workspace_root("BENCH_x.json");
        assert_eq!(anchored.file_name().unwrap(), "BENCH_x.json");
        let root = anchored.parent().unwrap();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        assert!(
            manifest.contains("[workspace]"),
            "anchor must be the workspace root"
        );
        assert_ne!(
            root,
            std::env::current_dir().unwrap(),
            "package root is not the anchor"
        );
        // Absolute paths pass through untouched.
        let abs = if cfg!(windows) {
            "C:\\tmp\\r.json"
        } else {
            "/tmp/r.json"
        };
        assert_eq!(anchor_at_workspace_root(abs), std::path::PathBuf::from(abs));
    }

    #[test]
    fn bencher_iter_counts_and_times() {
        let mut b = Bencher {
            deadline: Instant::now() + Duration::from_millis(20),
            total: Duration::ZERO,
            iters: 0,
        };
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(x)
        });
        assert!(b.iters > 0);
        assert!(b.total > Duration::ZERO);
    }

    #[test]
    fn group_runs_and_records() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-test");
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(10))
            .throughput(Throughput::Elements(100));
        group.bench_function(BenchmarkId::from_parameter("noop"), |b| {
            b.iter(|| black_box(1 + 1))
        });
        group.finish();
        let found = RESULTS
            .lock()
            .unwrap()
            .iter()
            .any(|r| r.group == "shim-test" && r.id == "noop");
        assert!(found);
    }

    #[test]
    fn pair_interleaving_records_both_sides() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-pair-test");
        group
            .warm_up_time(Duration::from_millis(4))
            .measurement_time(Duration::from_millis(16));
        group.bench_pair_interleaved(
            "side-a",
            |b| b.iter(|| black_box(2 + 2)),
            "side-b",
            |b| b.iter(|| black_box(3 + 3)),
        );
        group.finish();
        let results = RESULTS.lock().unwrap();
        for id in ["side-a", "side-b"] {
            let rec = results
                .iter()
                .find(|r| r.group == "shim-pair-test" && r.id == id)
                .expect("both sides recorded");
            assert!(rec.iters > 0 && rec.mean_ns > 0.0);
        }
    }

    #[test]
    fn median_discards_bursts_symmetrically() {
        let mut odd = [10.0, 1e9, 12.0, 11.0, 13.0];
        assert!((median(&mut odd) - 12.0).abs() < f64::EPSILON);
        let mut even = [10.0, 20.0, 30.0, 1e9];
        assert!((median(&mut even) - 25.0).abs() < f64::EPSILON);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn filter_matches_on_the_group_slash_id_label() {
        assert!(filter_allows("", "any", "thing"));
        assert!(filter_allows(
            "block-vs-pr5",
            "block-vs-pr5",
            "block/compact"
        ));
        assert!(filter_allows("pr5/stream", "block-vs-pr5", "pr5/stream"));
        assert!(!filter_allows("hot_path", "block-vs-pr5", "pr5/stream"));
        // Ungrouped benchmarks match on the bare id.
        assert!(filter_allows("solo", "", "solo-bench"));
        assert!(!filter_allows("group/", "", "solo-bench"));
    }
}
