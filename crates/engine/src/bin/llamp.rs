//! `llamp` — the unified campaign CLI.
//!
//! ```text
//! llamp run <spec.toml|spec.json> [--threads N] [--cache FILE]
//!           [--out FILE] [--csv FILE] [--timeout-ms N] [--quiet]
//!           [--metrics] [--metrics-out FILE] [--trace-out FILE]
//! llamp list-workloads
//! llamp report <results.json> [--csv FILE] [--metrics FILE]
//! ```
//!
//! `run` executes a campaign spec (see `examples/campaign.toml`),
//! optionally persisting the result cache across invocations; `report`
//! renders a results file as an aligned tolerance table. Run statistics
//! (threads, cache hit rate, wall time) go to stderr so stdout stays
//! clean for piped JSON.
//!
//! Telemetry is strictly out-of-band: `--metrics` / `--trace-out` /
//! `--metrics-out` turn on the `llamp-obs` recorder, and everything it
//! collects goes to stderr or to sidecar files — the results JSON stays
//! byte-identical with tracing on or off (see docs/OBSERVABILITY.md).

use llamp_engine::value::{parse_json, Value};
use llamp_engine::{
    metrics_value, parse_backend, render_metrics, run_campaign_checked, CampaignSpec,
    ExecutorConfig, ResultCache,
};
use llamp_workloads::App;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Typed CLI failure, mapped onto the documented exit-code table (see
/// README § Exit codes): 2 usage, 3 input parse, 4 I/O, 5 campaign
/// completed with failures past the fault budget (partial results were
/// still written), 1 anything else.
enum CliError {
    /// Bad command line (unknown command/flag, wrong arity, bad number).
    Usage(String),
    /// An input file did not parse (spec, results, metrics sidecar).
    Parse(String),
    /// A file could not be read or written.
    Io(String),
    /// The campaign ran but more scenarios failed than the fault budget
    /// tolerates; the partial results file was written before this error.
    Campaign(String),
    /// Everything else.
    Internal(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Internal(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Io(_) => 4,
            CliError::Campaign(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Parse(m)
            | CliError::Io(m)
            | CliError::Campaign(m)
            | CliError::Internal(m) => m,
        }
    }
}

fn main() -> ExitCode {
    llamp_util::tune_for_large_traces();
    // Deterministic chaos: LLAMP_FAULTS / LLAMP_FAULTS_SEED arm the
    // fault-injection registry for this process (see docs/ROBUSTNESS.md).
    if let Err(e) = llamp_faults::init_from_env() {
        eprintln!("llamp: LLAMP_FAULTS: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("list-workloads") => cmd_list_workloads(),
        Some("gen") => cmd_gen(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command '{other}'\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("llamp: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
llamp — LLAMP campaign driver

USAGE:
  llamp run <spec.toml|spec.json> [OPTIONS]   execute a campaign spec
  llamp list-workloads                        list workload proxies
  llamp gen <workload> [GEN OPTIONS]          emit a (scaled) synthetic trace
  llamp report <results.json> [--csv FILE]    summarise a results file

Campaign specs sweep workloads x topologies x params x backends over a
latency grid ([grid]) or multi-parameter L/G/o axes ([[axes]]). The
complete field reference is docs/SPEC.md; runnable examples live in
examples/campaign.toml (grid) and examples/heatmap.toml (L x G axes).

RUN OPTIONS:
  --threads N       worker threads (default: all cores)
  --no-reduce       analyse raw execution graphs (skip the
                    makespan-preserving reduction pipeline; reduced and
                    raw runs never share cache entries)
  --cache FILE      load/save the result cache (JSON; created if missing)
  --out FILE        write results JSON here (default: stdout)
  --csv FILE        also write a flat CSV of all sweep points
  --backends LIST   override the spec's backends (comma-separated:
                    parametric | eval | lp; lp-sparse, lp-dense,
                    lp-parametric, lp-dual and simplex are aliases of lp)
  --timeout-ms N    per-scenario timeout (default: unlimited)
  --retries N       re-run a panicked/timed-out scenario up to N times
                    before recording the failure (default: 1)
  --fault-budget N  tolerate up to N failed scenarios; their slots stay
                    typed errors in the results file. One more and the
                    run exits 5 — after writing all outputs (default: 0)
  --metrics         record telemetry and print the metrics summary
                    (solver/reduction totals, span tree, cache counters,
                    solve-time histograms) to stderr; the results JSON is
                    unaffected
  --metrics-out F   also write the metrics document to a JSON sidecar
                    (render later with 'llamp report ... --metrics F')
  --trace-out F     also write a Chrome trace-event file (load in
                    chrome://tracing or Perfetto)
  --quiet           suppress the run summary

GEN OPTIONS:
  --rank-mult N     multiply the bench-standard 8-rank shape (default 1)
  --iter-mult N     multiply the outer iteration count (default 1)
  --out FILE        write the trace text here (default: stdout, unless
                    --stats is given)
  --stats           don't dump the trace; stream-ingest it straight
                    into the reduction pipeline (the path 'run' takes,
                    no raw CSR) and print size/timing stats (combine
                    with --out to do both)

  Multipliers in the tens push the execution graph into the 10^5-10^7
  vertex range; see docs/SCALING.md.

REPORT OPTIONS:
  --csv FILE        also write the tolerance table as CSV
  --metrics FILE    render a metrics sidecar written by 'run --metrics-out'

EXIT CODES:
  0 success   1 internal error   2 usage error   3 input parse error
  4 I/O error   5 campaign failures exceeded --fault-budget
";

/// Minimal flag parser: positionals plus `--key value` / `--flag`.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Self, String> {
        let mut out = Self {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    out.flags.push((name.to_string(), None));
                } else if value_flags.contains(&name) {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), Some(v.clone())));
                } else {
                    return Err(format!("unknown option --{name}"));
                }
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        args,
        &[
            "threads",
            "cache",
            "out",
            "csv",
            "backends",
            "timeout-ms",
            "fault-budget",
            "retries",
            "metrics-out",
            "trace-out",
        ],
        &["quiet", "metrics", "no-reduce"],
    )
    .map_err(CliError::Usage)?;
    let [spec_path] = args.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "'run' takes exactly one spec file\n\n{USAGE}"
        )));
    };
    // Any telemetry sink turns the recorder on; without one, every obs
    // entry point stays a single relaxed atomic load.
    let telemetry =
        args.has("metrics") || args.get("metrics-out").is_some() || args.get("trace-out").is_some();
    if telemetry {
        llamp_obs::enable();
    }
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| CliError::Io(format!("cannot read {spec_path}: {e}")))?;
    let mut spec =
        CampaignSpec::parse(&source, spec_path).map_err(|e| CliError::Parse(e.to_string()))?;
    if let Some(list) = args.get("backends") {
        spec.backends = list
            .split(',')
            .map(|b| parse_backend(b.trim()).map_err(|e| CliError::Usage(e.to_string())))
            .collect::<Result<Vec<_>, _>>()?;
        if spec.backends.is_empty() {
            return Err(CliError::Usage(
                "--backends: need at least one backend".into(),
            ));
        }
        spec.canonicalize();
    }
    if args.has("no-reduce") {
        spec.reduce = false;
    }

    let threads = match args.get("threads") {
        None => 0,
        Some(t) => t
            .parse::<usize>()
            .map_err(|_| CliError::Usage(format!("--threads: '{t}' is not a number")))?,
    };
    let job_timeout = match args.get("timeout-ms") {
        None => None,
        Some(t) => Some(Duration::from_millis(t.parse::<u64>().map_err(|_| {
            CliError::Usage(format!("--timeout-ms: '{t}' is not a number"))
        })?)),
    };
    let fault_budget = match args.get("fault-budget") {
        None => 0,
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| CliError::Usage(format!("--fault-budget: '{n}' is not a number")))?,
    };
    let max_retries = match args.get("retries") {
        None => ExecutorConfig::default().max_retries,
        Some(n) => n
            .parse::<u32>()
            .map_err(|_| CliError::Usage(format!("--retries: '{n}' is not a number")))?,
    };
    let config = ExecutorConfig {
        threads,
        job_timeout,
        max_retries,
    };

    let cache_path = args.get("cache").map(PathBuf::from);
    let cache = match &cache_path {
        Some(p) if p.exists() => ResultCache::load(p)
            .map_err(|e| CliError::Io(format!("cannot load cache {}: {e}", p.display())))?,
        _ => ResultCache::new(),
    };

    // A blown fault budget still produces the full partial result: write
    // every output first, fail the process last.
    let (result, summary, campaign_failure) =
        match run_campaign_checked(&spec, &config, &cache, fault_budget) {
            Ok((result, summary)) => (result, summary, None),
            Err(e) => {
                let rendered = e.to_string();
                (e.result, e.summary, Some(rendered))
            }
        };

    if let Some(p) = &cache_path {
        cache
            .save(p)
            .map_err(|e| CliError::Io(format!("cannot save cache {}: {e}", p.display())))?;
    }

    // The results file is byte-identical with telemetry on or off: the
    // recorder never touches it.
    let json = result.to_json();
    match args.get("out") {
        Some(path) => std::fs::write(path, &json)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?,
        None => print!("{json}"),
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, result.to_csv())
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    }

    // Drain the recorder (after the cache save, so its span is included).
    let metrics_doc = telemetry.then(|| {
        let snapshot = llamp_obs::take();
        llamp_obs::disable();
        if let Some(path) = args.get("trace-out") {
            if let Err(e) = std::fs::write(path, snapshot.chrome_trace_json()) {
                eprintln!("llamp: cannot write {path}: {e}");
            }
        }
        metrics_value(&summary, &snapshot.summary())
    });
    if let (Some(doc), Some(path)) = (&metrics_doc, args.get("metrics-out")) {
        std::fs::write(path, doc.to_json_pretty())
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    }
    if !args.has("quiet") {
        eprintln!(
            "campaign '{}' ({:016x})",
            result.name, result.spec_fingerprint
        );
        match &metrics_doc {
            // One rendering path for all telemetry (run summary included):
            // `llamp report --metrics` replays the sidecar through the
            // same formatter.
            Some(doc) => eprintln!("{}", render_metrics(doc)),
            None => eprintln!("{}", summary.render()),
        }
    }
    if let Some(rendered) = campaign_failure {
        return Err(CliError::Campaign(format!(
            "{rendered}see the results file for the failing scenarios"
        )));
    }
    Ok(())
}

fn cmd_list_workloads() -> Result<(), CliError> {
    println!("{:<12} {:>10} character", "name", "paper o");
    println!("{}", "-".repeat(72));
    for app in App::ALL {
        println!(
            "{:<12} {:>7.1} µs {}",
            app.name().to_ascii_lowercase(),
            app.paper_o() / 1_000.0,
            describe(app)
        );
    }
    println!("\nUse these names in [[workloads]] entries of a campaign spec.");
    Ok(())
}

fn describe(app: App) -> &'static str {
    match app {
        App::Lulesh => "3D 26-neighbour nonblocking halo + dt-allreduce (weak)",
        App::Hpcg => "27-pt halo, dot-product allreduces, MG V-cycle (weak)",
        App::Milc => "4D lattice, dependent CG halo chains + global sums (strong)",
        App::Icon => "icosahedral neighbour exchange, compute-heavy (strong)",
        App::Lammps => "forward/reverse 6-dir comm, neighbour rebuilds (weak)",
        App::Openmx => "bcast/reduce-heavy DFT steps (weak)",
        App::Cloverleaf => "2D 4-neighbour halo + field reductions (weak)",
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        args,
        &["rank-mult", "iter-mult", "out"],
        &["stats", "metrics"],
    )
    .map_err(CliError::Usage)?;
    if args.has("metrics") {
        llamp_obs::enable();
    }
    let [name] = args.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "'gen' takes exactly one workload name\n\n{USAGE}"
        )));
    };
    let app = App::parse(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown workload '{name}' (see 'llamp list-workloads')"
        ))
    })?;
    let mult = |flag: &str| -> Result<u32, CliError> {
        match args.get(flag) {
            None => Ok(1),
            Some(v) => v
                .parse::<u32>()
                .map_err(|_| CliError::Usage(format!("--{flag}: '{v}' is not a number"))),
        }
    };
    let (rank_mult, iter_mult) = (mult("rank-mult")?, mult("iter-mult")?);
    let set = llamp_workloads::scaled(app, rank_mult, iter_mult);

    if args.has("stats") {
        use llamp_schedgen::{builder_of_programs, GraphConfig, ReduceConfig};
        let t0 = std::time::Instant::now();
        let builder = builder_of_programs(&set, &GraphConfig::paper())
            .map_err(|e| CliError::Internal(e.to_string()))?;
        let ingest = t0.elapsed();
        let t1 = std::time::Instant::now();
        let red = builder
            .finish_reduced(&ReduceConfig::default())
            .map_err(|e| CliError::Internal(e.to_string()))?;
        let reduce = t1.elapsed();
        println!(
            "workload        {} x{rank_mult} ranks x{iter_mult} iters\n\
             ranks           {}\n\
             records         {}\n\
             vertices        {}\n\
             edges           {}\n\
             ingest          {:.1} ms\n\
             reduce          {:.1} ms\n\
             {}",
            app.name(),
            set.nranks,
            set.num_records(),
            red.stats().vertices_before,
            red.stats().edges_before,
            ingest.as_secs_f64() * 1e3,
            reduce.as_secs_f64() * 1e3,
            red.stats().render(),
        );
    }

    if args.get("out").is_some() || !args.has("stats") {
        let trace = set.trace(&llamp_trace::TracerConfig::default());
        let text = llamp_trace::text::write_trace(&trace);
        match args.get("out") {
            Some(path) => std::fs::write(path, &text)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?,
            None => print!("{text}"),
        }
    }
    if args.has("metrics") {
        let snapshot = llamp_obs::take();
        llamp_obs::disable();
        eprint!("{}", snapshot.summary().render());
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(args, &["csv", "metrics"], &[]).map_err(CliError::Usage)?;
    let [path] = args.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "'report' takes exactly one results file\n\n{USAGE}"
        )));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let doc = parse_json(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    let name = doc.get("name").and_then(Value::as_str).unwrap_or("?");
    let scenarios = doc
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or_else(|| CliError::Parse(format!("{path}: not a llamp results file")))?;

    println!("# campaign '{name}' — {} scenario(s)\n", scenarios.len());
    let fmt_tol = |v: Option<&Value>| -> String {
        match v {
            Some(Value::Null) => "inf".into(),
            Some(x) => x
                .as_f64()
                .map(|t| format!("{:.1}", t / 1_000.0))
                .unwrap_or_else(|| "?".into()),
            None => "?".into(),
        }
    };
    println!(
        "{:<38} {:<10} {:>12} {:>10} {:>10} {:>10}",
        "workload | topology", "backend", "T0 [ms]", "1% [µs]", "2% [µs]", "5% [µs]"
    );
    println!("{}", "-".repeat(96));
    let mut rows_csv = String::from(
        "workload,topology,params,backend,baseline_runtime_ns,pct1_ns,pct2_ns,pct5_ns\n",
    );
    for s in scenarios {
        let sc = s.get("scenario");
        let field = |k: &str| -> String {
            sc.and_then(|t| t.get(k))
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        if let Some(err) = s.get("error").and_then(Value::as_str) {
            println!(
                "{:<38} {:<10} FAILED: {err}",
                format!("{} | {}", field("workload"), field("topology")),
                field("backend")
            );
            continue;
        }
        let zones = s.get("zones");
        let z = |k: &str| zones.and_then(|z| z.get(k));
        let t0 = z("baseline_runtime_ns")
            .and_then(Value::as_f64)
            .map(|t| format!("{:.3}", t / 1e6))
            .unwrap_or_else(|| "?".into());
        println!(
            "{:<38} {:<10} {:>12} {:>10} {:>10} {:>10}",
            format!("{} | {}", field("workload"), field("topology")),
            field("backend"),
            t0,
            fmt_tol(z("pct1_ns")),
            fmt_tol(z("pct2_ns")),
            fmt_tol(z("pct5_ns"))
        );
        let raw = |k: &str| -> String {
            match z(k) {
                Some(Value::Null) => "inf".into(),
                Some(x) => x.as_f64().map(|f| format!("{f:?}")).unwrap_or_default(),
                None => String::new(),
            }
        };
        rows_csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            field("workload"),
            field("topology"),
            field("params"),
            field("backend"),
            raw("baseline_runtime_ns"),
            raw("pct1_ns"),
            raw("pct2_ns"),
            raw("pct5_ns"),
        ));
    }
    if let Some(csv_path) = args.get("csv") {
        std::fs::write(csv_path, rows_csv)
            .map_err(|e| CliError::Io(format!("cannot write {csv_path}: {e}")))?;
    }
    if let Some(metrics_path) = args.get("metrics") {
        // The sidecar renders through the same formatter `run --metrics`
        // uses, so the replay is byte-identical to the live summary.
        let text = std::fs::read_to_string(metrics_path)
            .map_err(|e| CliError::Io(format!("cannot read {metrics_path}: {e}")))?;
        let metrics_doc =
            parse_json(&text).map_err(|e| CliError::Parse(format!("{metrics_path}: {e}")))?;
        println!("\n# metrics ({metrics_path})\n");
        print!("{}", render_metrics(&metrics_doc));
    }
    Ok(())
}
