//! `nds` — command-line feasibility tool.
//!
//! ```text
//! nds analyze --job 7200 --workstations 60 --owner-demand 10 --utilization 0.10
//! nds thresholds [--target 0.8]
//! nds validate [--quick]
//! nds sensitivity --task 100 --workstations 60 --owner-demand 10 --utilization 0.10
//! nds sched --workstations 16 --utilization 0.10 --eviction checkpoint
//! nds stream --rate 0.02 --utilization 0.10 --jobs 400
//! nds gang --gang-size 8 --utilization 0.10 --gang suspend-all
//! nds trace sched --out traces
//! nds replay tests/data/datacenter_small.csv --machines 64 --chunk 4096
//! ```
//!
//! Each subcommand declares one flag table, and one parser checks the
//! whole line against it before anything runs. An unknown, repeated,
//! value-less, unparsable or out-of-range flag, a stray positional, or
//! a policy flag the chosen policy never reads (`--interval` under
//! restart eviction, `--min-running` under `--gang suspend-all`),
//! exits 2 with `<cmd>: <reason>` on stderr and nothing on stdout.
//! `nds help` and `nds <cmd> --help` are printed from the tables.
//! Exit codes: 0 ok, 1 a run that failed or a negative verdict, 2 a
//! usage error. A closed stdout ends the program quietly with exit 0.

use nds::core::prelude::*;
use nds::core::sim::{SimBuilder, SyntheticTrace, TraceWorkload};
use nds::model::sensitivity::elasticities;
use nds::model::solver::required_task_ratio;
use nds::model::ModelError;
use nds::sched::{SchedError, SchedMetrics};
use std::fmt::Display;
use std::io::{self, BufRead, Write};

/// What a flag's value must parse as. The parser checks it, so reading
/// a parsed flag cannot fail.
#[derive(Clone, Copy)]
enum Kind {
    /// A bare switch that takes no value.
    Switch,
    /// Free text: a path, or a policy name its reader checks.
    Text,
    /// A finite number.
    Num,
    /// An integer in `min..=max`, a range that fits the type its reader
    /// takes.
    Int(u64, u64),
}

/// One row of a flag table: the value's kind and `--name  help line`.
#[derive(Clone, Copy)]
struct Flag(Kind, &'static str);

const fn switch(row: &'static str) -> Flag {
    Flag(Kind::Switch, row)
}

const fn text(row: &'static str) -> Flag {
    Flag(Kind::Text, row)
}

const fn num(row: &'static str) -> Flag {
    Flag(Kind::Num, row)
}

const fn int(row: &'static str, min: u64, max: u64) -> Flag {
    Flag(Kind::Int(min, max), row)
}

/// The widest integer ranges: any `u32` (pool sizes, job and task
/// counts) and any `u64` (seeds, event caps).
const U32: u64 = u32::MAX as u64;
const U64: u64 = u64::MAX;

impl Flag {
    fn name(&self) -> &'static str {
        split_row(self.1).0
    }
}

/// A table row's head and help line, split at the first double space.
fn split_row(row: &'static str) -> (&'static str, &'static str) {
    row.split_once("  ").unwrap_or((row, ""))
}

const WORKSTATIONS: Flag = int("--workstations  pool size W", 0, U32);
const UTILIZATION: Flag = num("--utilization  owner utilization U");
const OWNER_DEMAND: Flag = num("--owner-demand  mean owner demand O");
const TARGET: Flag = num("--target  target weighted efficiency (default 0.8)");
const JOBS: Flag = int("--jobs  jobs in the batch", 0, U32);
const TASKS: Flag = int("--tasks  tasks per job (sched: default W)", 0, U32);
const TASK_DEMAND: Flag = num("--task-demand  CPU demand of each task");
const ARRIVAL_GAP: Flag = num("--arrival-gap  time between job arrivals");
const SEED: Flag = int("--seed  master seed", 0, U64);
const REPS: Flag = int("--reps  independent replications", 1, 1 << 20);
const BATCHES: Flag = int("--batches  batch means (default 20)", 0, 1 << 16);
const TRACE: Flag = text("--trace  also flight-record the run under this directory");
const OUT: Flag = text("--out  trace directory (default traces)");
/// The model point `analyze` and `sensitivity` evaluate.
const MODEL: &[Flag] = &[WORKSTATIONS, OWNER_DEMAND, UTILIZATION];
/// The pool a scheduler experiment runs on.
const POOL: &[Flag] = &[
    WORKSTATIONS,
    num("--utilization  owner utilization U (default 0.10)"),
    num("--owner-demand  mean owner demand O (default 10)"),
    SEED,
    REPS,
    num("--metrics-every  sim-time metrics snapshot interval (default 100)"),
];
/// Placement, eviction, queue and failure policies, and `--trace`.
const POLICY: &[Flag] = &[
    text("--placement  random | round-robin | least-loaded (default)"),
    text("--eviction  restart | suspend (default) | migrate | checkpoint | adaptive"),
    num("--overhead  migration or checkpoint cost (default 2)"),
    num("--interval  checkpoint interval (default 30)"),
    num("--threshold  adaptive: restart below this invested progress (default 60)"),
    text("--discipline  fcfs (default) | sjf"),
    num("--mtbf  inject exponential machine crashes with this mean uptime"),
    num("--mttr  mean repair time of a crash (default 15; needs --mtbf)"),
    TRACE,
];
/// Watching and recording a run.
const OBSERVE: &[Flag] = &[
    num("--progress  stderr heartbeat every this many wall-clock seconds"),
    switch("--cheap  bounded-cost recording: lifecycle records, no host profile"),
    int("--trace-capacity  records kept (0 = all)", 0, 1 << 32),
];

/// One subcommand: `name operands  summary`, its flag table and body.
/// A `[bracketed]` operand is optional.
struct Command {
    usage: &'static str,
    table: &'static [&'static [Flag]],
    run: fn(&Args, &mut dyn Write) -> Result<i32, CliError>,
}

impl Command {
    fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.table.iter().flat_map(|group| group.iter())
    }

    fn name(&self) -> &'static str {
        let head = split_row(self.usage).0;
        head.split(' ').next().unwrap_or(head)
    }

    /// The fewest and most positionals the command takes.
    fn arity(&self) -> (usize, usize) {
        let operands = split_row(self.usage).0.split(' ').skip(1);
        let required = operands.clone().filter(|w| !w.starts_with('[')).count();
        (required, operands.count())
    }
}

const COMMANDS: [Command; 11] = [
    Command {
        usage: "analyze  feasibility at --job, --workstations, --owner-demand, --utilization",
        table: &[&[num("--job  total job demand J"), TARGET], MODEL],
        run: cmd_analyze,
    },
    Command {
        usage: "thresholds  required task ratios by U and W",
        table: &[&[TARGET]],
        run: cmd_thresholds,
    },
    Command {
        usage: "validate  rerun the paper's conclusion checks",
        table: &[&[switch("--quick  skip the simulation spot check")]],
        run: cmd_validate,
    },
    Command {
        usage: "sensitivity  elasticities at --task, --workstations, --owner-demand, --utilization",
        table: &[&[num("--task  task demand T")], MODEL],
        run: cmd_sensitivity,
    },
    Command {
        usage: "sched  cycle-stealing pool scheduler experiment",
        table: &[
            POOL,
            &[JOBS, TASKS, TASK_DEMAND, ARRIVAL_GAP],
            POLICY,
            OBSERVE,
        ],
        run: cmd_sched,
    },
    Command {
        usage: "stream  open Poisson stream, steady-state response CI",
        table: &[
            POOL,
            &[
                num("--rate  job arrival rate"),
                int("--jobs  jobs to submit", 0, 1 << 24),
                int("--warmup  leading jobs not measured", 0, 1 << 24),
                TASKS,
                TASK_DEMAND,
                BATCHES,
            ],
            POLICY,
            OBSERVE,
        ],
        run: cmd_stream,
    },
    Command {
        usage: "gang  gang co-allocation vs independent tasks",
        table: &[
            POOL,
            &[
                JOBS,
                int("--gang-size  tasks per gang", 0, U32),
                TASK_DEMAND,
                ARRIVAL_GAP,
                text("--gang  suspend-all (default) | migrate-all | partial | off"),
                int("--min-running  floor; implies --gang partial", 0, U32),
                num("--min-running-frac  the floor as a fraction of the gang"),
            ],
            POLICY,
            OBSERVE,
        ],
        run: cmd_gang,
    },
    Command {
        usage: "trace [sched|stream|gang]  record engine events; to replay a job trace see replay",
        table: &[&[OUT], POOL, OBSERVE],
        run: cmd_trace,
    },
    Command {
        usage: "replay [FILE]  stream a .csv/.jsonl job trace or a synthetic day (unlike trace)",
        table: &[
            &[
                int("--machines  pool size (16, or 64 for the day)", 0, U32),
                int("--jobs  jobs in the day (default 1200)", 0, 1 << 32),
                int("--warmup  leading jobs not measured", 0, 1 << 32),
                int("--chunk  jobs per streamed chunk", 1, 1 << 32),
                num("--utilization  owner utilization U of a FILE's pool (default 0.10)"),
                num("--owner-demand  mean owner demand O of a FILE's pool (default 10)"),
                BATCHES,
                SEED,
                REPS,
                int("--shards  threads the replications spread over", 1, 1 << 10),
                int("--max-events  event cap (default 200000000)", 0, U64),
                TRACE,
            ],
            OBSERVE,
        ],
        run: cmd_replay,
    },
    Command {
        usage: "diff-trace A B  first divergence between two JSONL traces",
        table: &[&[int("--context  context records (default 3)", 0, 1 << 16)]],
        run: cmd_diff_trace,
    },
    Command {
        usage: "help  this message",
        table: &[],
        run: cmd_help,
    },
];

/// A parsed flag value.
enum Value {
    On,
    Text(String),
    Num(f64),
    Int(u64),
}

impl Kind {
    /// `raw` as a value of this kind, if it is one.
    fn parse(self, raw: &str) -> Option<Value> {
        match (self, raw.parse::<f64>(), raw.parse::<u64>()) {
            (Kind::Text, ..) => Some(Value::Text(raw.to_string())),
            (Kind::Num, Ok(x), _) if x.is_finite() => Some(Value::Num(x)),
            (Kind::Int(min, max), _, Ok(n)) if (min..=max).contains(&n) => Some(Value::Int(n)),
            _ => None,
        }
    }

    /// The placeholder `--help` shows, and what a value must be.
    fn describe(self) -> (&'static str, String) {
        match self {
            Kind::Switch => ("", String::new()),
            Kind::Text => (" <str>", "text".into()),
            Kind::Num => (" <num>", "a finite number".into()),
            Kind::Int(min, max) => (" <int>", format!("an integer in {min}..={max}")),
        }
    }
}

/// Why a command stopped early: the exit code and the stderr message.
struct CliError(i32, String);

/// A usage or configuration mistake: exit 2.
fn usage(e: impl Display) -> CliError {
    CliError(2, e.to_string())
}

/// A run that could not complete: exit 1.
fn failed(e: impl Display) -> CliError {
    CliError(1, e.to_string())
}

impl From<io::Error> for CliError {
    /// Writing stdout failed: exit 1, or a quiet 0 for a closed pipe.
    fn from(e: io::Error) -> Self {
        let code = i32::from(e.kind() != io::ErrorKind::BrokenPipe);
        CliError(code, format!("writing stdout: {e}"))
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        match e {
            // Stats errors are configuration mistakes too: the
            // batch/window split could not form an interval. So is a
            // config the engine rejects at admission, such as a gang
            // wider than the pool; only a run cut short fails.
            SimError::InvalidPool { .. }
            | SimError::InvalidWorkload { .. }
            | SimError::InvalidPolicy { .. }
            | SimError::MissingWorkload
            | SimError::Stats(_)
            | SimError::Sched(SchedError::InvalidConfig { .. }) => usage(e),
            SimError::Sched(_) | SimError::Cluster(_) => failed(e),
        }
    }
}

/// An out-of-domain model parameter is a usage error; a solver that
/// found no answer is a failed run.
fn model_error(e: ModelError) -> CliError {
    match e {
        ModelError::InvalidParameter { .. } => usage(e),
        ModelError::NoSolution { .. } => failed(e),
    }
}

/// A command line checked against one table.
#[derive(Default)]
struct Args {
    values: Vec<(&'static str, Value)>,
    positionals: Vec<String>,
}

impl Args {
    /// `name`'s value, if given. A flag outside the command's table
    /// reads as unset; reading one that no table declares with `kind`
    /// is a bug the debug build catches.
    fn get(&self, name: &str, kind: fn(Kind) -> bool) -> Option<&Value> {
        debug_assert!(
            COMMANDS
                .iter()
                .flat_map(Command::rows)
                .any(|f| f.name() == name && kind(f.0)),
            "no table declares {name} with the kind it is read as"
        );
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn on(&self, name: &str) -> bool {
        self.get(name, |k| matches!(k, Kind::Switch)).is_some()
    }

    /// Whether `name` was given, whatever its kind.
    fn given(&self, name: &str) -> bool {
        self.get(name, |_| true).is_some()
    }

    fn text(&self, name: &str) -> Option<&str> {
        match self.get(name, |k| matches!(k, Kind::Text))? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self, name: &str) -> Option<f64> {
        match self.get(name, |k| matches!(k, Kind::Num))? {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn int<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        match self.get(name, |k| matches!(k, Kind::Int(..)))? {
            Value::Int(n) => T::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// Check `argv` against `cmd`'s table; `Ok(None)` asks for `--help`.
/// A token that starts with `--` is always a flag, never a value.
fn parse(cmd: &Command, argv: &[String]) -> Result<Option<Args>, CliError> {
    if argv.iter().any(|a| a == "--help") {
        return Ok(None);
    }
    let mut args = Args::default();
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            args.positionals.push(token.clone());
            continue;
        }
        let Some(flag) = cmd.rows().find(|f| f.name() == token) else {
            let see = format!("see nds {} --help", cmd.name());
            return Err(usage(format!("unknown flag {token} ({see})")));
        };
        let name = flag.name();
        if args.values.iter().any(|(n, _)| *n == name) {
            return Err(usage(format!("{name} given twice")));
        }
        let value = match flag.0 {
            Kind::Switch => Value::On,
            kind => {
                let Some(raw) = tokens.next().filter(|v| !v.starts_with("--")) else {
                    return Err(usage(format!("{name} needs a value")));
                };
                let wrong = || usage(format!("{name} expects {}, got {raw}", kind.describe().1));
                kind.parse(raw).ok_or_else(wrong)?
            }
        };
        args.values.push((name, value));
    }
    let (min, max) = cmd.arity();
    if let Some(extra) = args.positionals.get(max) {
        return Err(usage(format!("unexpected argument {extra}")));
    }
    if args.positionals.len() < min {
        return Err(usage(format!(
            "usage: nds {} [flags]",
            split_row(cmd.usage).0
        )));
    }
    Ok(Some(args))
}

fn main() {
    let argv: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(std::ffi::OsString::into_string)
        .collect();
    let mut out = io::stdout().lock();
    let (name, result) = match &argv {
        Ok(argv) => dispatch(argv, &mut out),
        Err(_) => ("nds", Err(usage("arguments must be valid UTF-8"))),
    };
    let flushed = |code| out.flush().map(|()| code).map_err(CliError::from);
    let code = match result.and_then(flushed) {
        Ok(code) => code,
        Err(CliError(code, message)) => {
            if code != 0 {
                // A closed stderr has nobody left to tell.
                let _ = writeln!(io::stderr(), "{name}: {message}");
            }
            code
        }
    };
    std::process::exit(code);
}

/// Run one command line; returns the name errors are reported under.
fn dispatch<'a>(argv: &'a [String], out: &mut dyn Write) -> (&'a str, Result<i32, CliError>) {
    let name = match argv.first().map(String::as_str) {
        None | Some("--help") => "help",
        Some(name) => name,
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name() == name) else {
        let unknown = format!("unknown command {name} (see nds help)");
        return ("nds", Err(usage(unknown)));
    };
    let result = match parse(cmd, argv.get(1..).unwrap_or_default()) {
        Ok(Some(args)) => (cmd.run)(&args, out),
        Ok(None) => help(cmd, out),
        Err(e) => Err(e),
    };
    (name, result)
}

/// What `nds help` prints above the command list.
const OVERVIEW: &str = "nds — feasibility of cycle-stealing on non-dedicated workstations\n\
                        (Leutenegger & Sun, SC'93)\n\n\
                        exit codes: 0 ok, 1 a failed run or a negative verdict, 2 a usage error\n\n\
                        commands (nds <command> --help lists a command's flags):";

fn cmd_help(_: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    writeln!(out, "{OVERVIEW}")?;
    for c in &COMMANDS {
        let (head, about) = split_row(c.usage);
        writeln!(out, "  {head:<32} {about}")?;
    }
    Ok(0)
}

/// `nds <cmd> --help`: the usage line, the summary and every table row.
fn help(c: &Command, out: &mut dyn Write) -> Result<i32, CliError> {
    let (head, about) = split_row(c.usage);
    writeln!(out, "usage: nds {head} [flags]\n{about}\n\nflags:")?;
    for flag in c.rows() {
        let ((name, help), meta) = (split_row(flag.1), flag.0.describe().0);
        writeln!(out, "  {:<24} {help}", format!("{name}{meta}"))?;
    }
    writeln!(out, "  {:<24} print this help", "--help")?;
    Ok(0)
}

/// `x` with `digits` decimals.
fn fx(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// A two-column table of rendered rows.
fn table(title: String, head: [&str; 2], rows: &[(&str, String)]) -> String {
    let mut t = Table::new(title).headers(head);
    for (name, value) in rows {
        t.row([*name, value.as_str()]);
    }
    t.render()
}

/// The model point `analyze` and `sensitivity` need: the `lead` demand
/// (the job's or a task's), then W, O and U.
fn model_point(a: &Args, lead: &str) -> Result<(f64, u32, f64, f64), CliError> {
    let (o, u) = (a.num("--owner-demand"), a.num("--utilization"));
    let (Some(x), Some(w), Some(o), Some(u)) = (a.num(lead), a.int("--workstations"), o, u) else {
        let rest = "--workstations, --owner-demand and --utilization";
        return Err(usage(format!("needs {lead}, {rest}")));
    };
    Ok((x, w, o, u))
}

fn cmd_analyze(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let (j, w, o, u) = model_point(a, "--job")?;
    let assessment = FeasibilityAnalyzer::builder()
        .job_demand(j)
        .workstations(w)
        .owner_demand(o)
        .owner_utilization(u)
        .target_weighted_efficiency(a.num("--target").unwrap_or(0.80))
        .build()
        .map_err(usage)?
        .assess()
        .map_err(failed)?;
    let (m, feasible) = (&assessment.metrics, assessment.feasible);
    let max_pool = assessment.max_useful_workstations;
    let max_pool = max_pool.map_or("none".into(), |w| w.to_string());
    let verdict = if feasible { "FEASIBLE" } else { "infeasible" };
    let rows = [
        ("task ratio T/O", fx(m.task_ratio, 2)),
        ("E[task time]", fx(m.expected_task_time, 2)),
        ("E[job time]", fx(m.expected_job_time, 2)),
        ("p95 job time", fx(assessment.job_time_p95, 2)),
        ("speedup", fx(m.speedup, 2)),
        ("weighted speedup", fx(m.weighted_speedup, 2)),
        ("efficiency", fx(m.efficiency, 4)),
        ("weighted efficiency", fx(m.weighted_efficiency, 4)),
        ("required task ratio", fx(assessment.required_task_ratio, 2)),
        ("max useful pool", max_pool),
        ("verdict", verdict.into()),
    ];
    let title = format!("feasibility of J={j} on W={w} stations (O={o}, U={u})");
    write!(out, "{}", table(title, ["metric", "value"], &rows))?;
    Ok(i32::from(!feasible))
}

fn cmd_thresholds(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let target = a.num("--target").unwrap_or(0.80);
    let pools = [2u32, 8, 20, 60, 100];
    let mut headers = vec!["U".to_string()];
    headers.extend(pools.iter().map(|w| format!("W={w}")));
    let title = format!("required task ratio for weighted efficiency >= {target}");
    let mut t = Table::new(title).headers(headers);
    for u in [0.01, 0.05, 0.10, 0.20] {
        let owner = OwnerParams::from_utilization(10.0, u).map_err(failed)?;
        let mut row = vec![format!("{u:.2}")];
        for &w in &pools {
            row.push(match required_task_ratio(w, owner, target) {
                Ok(r) => format!("{r:.1}"),
                Err(ModelError::NoSolution { .. }) => "-".into(),
                Err(e) => return Err(model_error(e)),
            });
        }
        t.row(row);
    }
    write!(out, "{}", t.render())?;
    Ok(0)
}

fn cmd_validate(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let checks = check_all_conclusions().map_err(failed)?;
    let title = "paper §5 conclusions vs this implementation";
    let mut t = Table::new(title).headers(["claim", "published", "reproduced", "pass"]);
    for c in &checks {
        let (published, reproduced) = (c.published.to_string(), fx(c.reproduced, 3));
        let pass = if c.passed { "yes" } else { "NO" };
        t.row([c.claim.clone(), published, reproduced, pass.into()]);
    }
    write!(out, "{}", t.render())?;
    let mut failures = checks.iter().filter(|c| !c.passed).count();
    if !a.on("--quick") {
        // Also spot-check simulation-vs-analysis agreement.
        let suite = ValidationSuite::quick(2024);
        let row = suite.validate_point(1000.0, 10, 0.10).map_err(failed)?;
        let (err, agrees) = (row.outcome.relative_error, row.outcome.agrees());
        let verdict = if agrees { "agrees" } else { "DISAGREES" };
        let line =
            format!("sim vs analysis at (J=1000, W=10, U=10%): rel err {err:.4} ({verdict})");
        writeln!(out, "\n{line}")?;
        failures += usize::from(!agrees);
    }
    let passed = checks.len() - failures;
    writeln!(out, "\n{passed}/{} checks passed", checks.len())?;
    Ok(i32::from(failures > 0))
}

fn cmd_sensitivity(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let (t, w, o, u) = model_point(a, "--task")?;
    let e = elasticities(t, w, o, u, 0.05).map_err(model_error)?;
    let rows = [
        ("task demand", format!("{:+.4}", e.wrt_task_demand)),
        ("utilization", format!("{:+.4}", e.wrt_utilization)),
        ("owner demand", format!("{:+.4}", e.wrt_owner_demand)),
        ("pool size", format!("{:+.4}", e.wrt_workstations)),
    ];
    let title = format!("elasticities of weighted efficiency at (T={t}, W={w}, O={o}, U={u})");
    let head = ["knob", "d ln(WE) / d ln(x)"];
    write!(out, "{}", table(title, head, &rows))?;
    writeln!(out, "\ndominant knob: {}", e.dominant())?;
    Ok(0)
}

/// The scheduler experiment families, each with its canonical scenario.
#[derive(Clone, Copy)]
enum Family {
    Sched,
    Stream,
    Gang,
}

/// A pool experiment resolved from the flags, ready to build.
struct Experiment {
    /// Title of the command's metrics table.
    title: String,
    workstations: u32,
    gang: GangPolicy,
    builder: SimBuilder,
}

/// Build the pool experiment of one family: the one builder behind
/// `sched`, `stream`, `gang` and `trace`. Defaults mirror the family's
/// scenario, so the CLI, the benches and the tests describe one
/// experiment; `reps` is the command's default. A flag outside the
/// command's table reads as unset, so `trace` gets those defaults.
fn experiment(a: &Args, family: Family, reps: u64) -> Result<Experiment, CliError> {
    let scenario = match family {
        Family::Sched => Scenario::SchedulerPool,
        Family::Stream => Scenario::OpenStream,
        Family::Gang => Scenario::GangPool,
    };
    let w = scenario.workstations()[0];
    let w = a.int("--workstations").unwrap_or(w);
    let u = a.num("--utilization").unwrap_or(0.10);
    let o = a.num("--owner-demand").unwrap_or(10.0);
    let reps = a.int("--reps").unwrap_or(reps);
    let overhead = a.num("--overhead").unwrap_or(2.0);
    let interval = a.num("--interval").unwrap_or(30.0);
    let placement = a.text("--placement").unwrap_or("least-loaded");
    let placement = PlacementKind::parse(placement)
        .ok_or_else(|| usage(format!("unknown placement policy {placement}")))?;
    let eviction = match a.text("--eviction").unwrap_or("suspend") {
        "restart" => EvictionPolicy::Restart,
        "suspend" | "suspend-resume" => EvictionPolicy::SuspendResume,
        "migrate" => EvictionPolicy::Migrate { overhead },
        "checkpoint" => EvictionPolicy::Checkpoint { interval, overhead },
        "adaptive" => EvictionPolicy::Adaptive {
            threshold: a.num("--threshold").unwrap_or(60.0),
            interval,
            overhead,
        },
        other => return Err(usage(format!("unknown eviction policy {other}"))),
    };
    let discipline = match a.text("--discipline").unwrap_or("fcfs") {
        "fcfs" => QueueDiscipline::Fcfs,
        "sjf" | "sjf-backfill" => QueueDiscipline::SjfBackfill,
        other => return Err(usage(format!("unknown queue discipline {other}"))),
    };
    let mut b = Sim::pool(w)
        .owners(OwnerWorkload::continuous_exponential(o, u).map_err(usage)?)
        .placement(placement)
        .eviction(eviction)
        .discipline(discipline)
        .calibration(10_000.0)
        .seed(a.int("--seed").unwrap_or(2024))
        .replications(reps)
        .metrics_every(a.num("--metrics-every").unwrap_or(100.0));
    let (placement, eviction_label, discipline) =
        (placement.name(), eviction.label(), discipline.name());
    let mut gang = GangPolicy::Off;
    let title = match family {
        Family::Sched => {
            let (jobs, _, gap) = scenario.sched_job_mix().expect("scheduler scenario");
            let jobs = a.int("--jobs").unwrap_or(jobs);
            // One task per workstation, matching the mix at W = 16.
            let tasks = a.int("--tasks").unwrap_or(w);
            let demand = scenario.sched_task_demand().expect("scheduler scenario");
            let demand = a.num("--task-demand").unwrap_or(demand);
            let gap = a.num("--arrival-gap").unwrap_or(gap);
            b = b.workload(closed(JobSpec::stream(jobs, tasks, demand, gap)));
            format!(
                "cycle-stealing pool: W={w}, U={u}, O={o}, {jobs} jobs x {tasks} tasks x {demand}, \
                 {placement} placement, {eviction_label} eviction, {discipline} queue \
                 ({reps} reps)"
            )
        }
        Family::Stream => {
            let (tasks, demand) = scenario.open_job_shape().expect("open scenario");
            let (jobs, warmup) = scenario.open_window().expect("open scenario");
            let rate = scenario.open_arrival_rate().expect("open scenario");
            let rate = a.num("--rate").unwrap_or(rate);
            let tasks = a.int("--tasks").unwrap_or(tasks);
            let demand = a.num("--task-demand").unwrap_or(demand);
            let jobs = a.int("--jobs").unwrap_or(jobs);
            let warmup = a.int("--warmup").unwrap_or(warmup);
            let arrivals = poisson(rate, JobShape::new(tasks, demand));
            b = b.batches(a.int("--batches").unwrap_or(20));
            b = b.workload(arrivals.jobs(jobs).warmup(warmup));
            format!(
                "open Poisson stream: λ={rate}, W={w}, U={u}, O={o}, {jobs} jobs x {tasks} tasks x \
                 {demand} ({warmup} warm-up, {placement} placement, \
                 {eviction_label} eviction, {discipline} queue, {reps} reps)"
            )
        }
        Family::Gang => {
            let (jobs, size, demand, gap) = scenario.gang_job_mix().expect("gang scenario");
            let jobs = a.int("--jobs").unwrap_or(jobs);
            let size = a.int("--gang-size").unwrap_or(size);
            let demand = a.num("--task-demand").unwrap_or(demand);
            let gap = a.num("--arrival-gap").unwrap_or(gap);
            // An explicit floor selects the partial policy unless the
            // caller named one (`--min-running 0` clamps to 1, like
            // every other surface); `--gang partial` without a floor
            // defaults to half the gang (rounded up by the per-job
            // clamp). A fractional floor picks PartialFrac directly.
            let (floor, frac) = (a.int("--min-running"), a.num("--min-running-frac"));
            if floor.is_some() && frac.is_some() {
                return Err(usage(
                    "--min-running and --min-running-frac both set the floor; give one",
                ));
            }
            let implied = if floor.is_some() || frac.is_some() {
                "partial"
            } else {
                "suspend-all"
            };
            let name = a.text("--gang").unwrap_or(implied);
            const GANGS: &str = "suspend-all | migrate-all | partial | off";
            gang = match (name, frac) {
                ("partial" | "min-running", Some(min_running_frac)) => {
                    Some(GangPolicy::PartialFrac { min_running_frac })
                }
                _ => GangPolicy::parse(name, overhead, floor.unwrap_or(size.div_ceil(2))),
            }
            .ok_or_else(|| usage(format!("unknown gang policy {name} ({GANGS})")))?;
            b = b
                .gang(gang)
                .workload(closed(JobSpec::stream(jobs, size, demand, gap)));
            let label = gang.label();
            format!(
                "gang co-allocation: W={w}, U={u}, O={o}, {jobs} jobs x {size} tasks x {demand}, \
                 gang {label}, {placement} placement, {discipline} queue ({reps} reps)"
            )
        }
    };
    inert_flags(a, eviction, gang)?;
    let builder = faults(observe(b, a), a)?;
    Ok(Experiment {
        title,
        workstations: w,
        gang,
        builder,
    })
}

/// Reject a policy flag that the chosen eviction and gang policies
/// never read: a usage error, not a silent no-op. `gang` pays
/// `--overhead` only under migrate-all, and its independent-task
/// baseline runs under the eviction policy.
fn inert_flags(a: &Args, eviction: EvictionPolicy, gang: GangPolicy) -> Result<(), CliError> {
    use EvictionPolicy::{Adaptive, Checkpoint, Restart, SuspendResume};
    let checkpoints = matches!(eviction, Checkpoint { .. } | Adaptive { .. });
    let adaptive = matches!(eviction, Adaptive { .. });
    let pays = !matches!(eviction, Restart | SuspendResume)
        || matches!(gang, GangPolicy::MigrateAll { .. });
    let partial = gang.is_partial();
    let evicting = match gang {
        GangPolicy::Off => format!("{} eviction", eviction.label()),
        gang => format!("{} eviction and gang {}", eviction.label(), gang.label()),
    };
    let gang = format!("gang {}", gang.label());
    // Each flag, whether the chosen policies read it, those policies,
    // and the ones that would read it.
    let rules = [
        (
            "--interval",
            checkpoints,
            &evicting,
            "checkpoint and adaptive eviction",
        ),
        ("--threshold", adaptive, &evicting, "adaptive eviction"),
        (
            "--overhead",
            pays,
            &evicting,
            "migrate, checkpoint, adaptive or gang migrate-all",
        ),
        ("--min-running", partial, &gang, "gang partial"),
        ("--min-running-frac", partial, &gang, "gang partial"),
    ];
    let inert = rules.into_iter().find(|&(f, read, ..)| !read && a.given(f));
    match inert {
        Some((flag, _, under, readers)) => Err(usage(format!(
            "{flag} has no effect under {under} (read only under {readers})"
        ))),
        None => Ok(()),
    }
}

/// Apply the observability flags: `--progress` (stderr heartbeat),
/// `--cheap` (bounded-cost recording) and `--trace-capacity` (ring).
fn observe(mut b: SimBuilder, a: &Args) -> SimBuilder {
    if let Some(every) = a.num("--progress") {
        b = b.progress(every);
    }
    let capacity = a.int("--trace-capacity").unwrap_or(0);
    b.trace_cheap(a.on("--cheap")).trace_capacity(capacity)
}

/// Apply the failure flags: `--mtbf M` arms exponential crashes of
/// mean uptime `M` and mean repair `--mttr R` (default 15). Without
/// `--mtbf` the run injects no failures and is bit-identical to the
/// pre-failure engine; `--mttr` alone is a usage error.
fn faults(b: SimBuilder, a: &Args) -> Result<SimBuilder, CliError> {
    let (mtbf, mttr) = (a.num("--mtbf"), a.num("--mttr"));
    let Some(mtbf) = mtbf else {
        return match mttr {
            Some(_) => Err(usage("--mttr without --mtbf (nothing to repair)")),
            None => Ok(b),
        };
    };
    let mttr = mttr.unwrap_or(15.0);
    let model = FailureModel::exponential(mtbf, mttr);
    Ok(b.failures(model.map_err(|e| usage(format!("--mtbf {mtbf} --mttr {mttr}: {e}")))?))
}

/// Run the built experiment under the flight recorder and write every
/// replication's exports under `dir` (`repN.trace.jsonl`,
/// `repN.chrome.json`, `repN.metrics.json`, `repN.profile.json`).
fn trace_to_dir(sim: &Sim, dir: &str) -> Result<Vec<Flight>, CliError> {
    // A config the engine rejects is a usage error, as for an untraced run.
    let flights = sim.run_flight()?;
    let dir = std::path::Path::new(dir);
    let creating = |e| failed(format!("creating {}: {e}", dir.display()));
    std::fs::create_dir_all(dir).map_err(creating)?;
    for f in &flights {
        let rep = f.replication;
        let write = |name: String, body: String| {
            let path = dir.join(name);
            let writing = |e| failed(format!("writing {}: {e}", path.display()));
            std::fs::write(&path, body).map_err(writing)
        };
        write(format!("rep{rep}.trace.jsonl"), f.to_jsonl())?;
        write(format!("rep{rep}.chrome.json"), f.to_chrome_json())?;
        write(format!("rep{rep}.metrics.json"), f.metrics_json())?;
        write(format!("rep{rep}.profile.json"), f.profile_json())?;
    }
    Ok(flights)
}

/// The claim `sched`, `stream` and `replay` close with.
const CONSERVATION: (&str, &str) = (
    "work conservation (delivered == goodput + wasted + ckpt)",
    "holds",
);

/// Close a run's output: print whether its `(claim, "hold(s)")` held,
/// then honour `--trace DIR` (flight-record the run and say where the
/// exports went). Exit 1 unless the claim held.
fn finish(
    out: &mut dyn Write,
    a: &Args,
    sim: &Sim,
    holds: bool,
    claim: (&str, &str),
) -> Result<i32, CliError> {
    let (claim, verdict) = (claim.0, if holds { claim.1 } else { "VIOLATED" });
    writeln!(out, "\n{claim}: {verdict}")?;
    if let Some(dir) = a.text("--trace") {
        let flights = trace_to_dir(sim, dir)?;
        let records: usize = flights.iter().map(|f| f.recorder.events().len()).sum();
        let files = format!("{dir}/rep*.{{trace.jsonl,chrome.json,metrics.json,profile.json}}");
        let reps = flights.len();
        writeln!(
            out,
            "\ntraced {reps} replication(s): {records} records -> {files}"
        )?;
    }
    Ok(i32::from(!holds))
}

fn cmd_sched(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let x = experiment(a, Family::Sched, 5)?;
    let sim = x.builder.build()?;
    let r = sim.run()?;
    let mean = |f: fn(&SchedMetrics) -> f64| fx(r.mean_over(f), 1);
    let available = r.mean_over(|m| m.mean_available_machines);
    let mut rows = vec![
        ("makespan", fx(r.mean_makespan(), 1)),
        ("mean job response", mean(|m| m.mean_response_time())),
        ("delivered CPU", mean(|m| m.delivered)),
        ("goodput", mean(|m| m.goodput)),
        ("wasted work", fx(r.mean_wasted(), 1)),
        ("checkpoint overhead", mean(|m| m.checkpoint_overhead)),
        ("goodput fraction", fx(r.mean_goodput_fraction(), 4)),
        ("evictions", fx(r.mean_evictions(), 1)),
        ("migrations", mean(|m| m.migrations as f64)),
        ("restarts", mean(|m| m.restarts as f64)),
        ("mean queue wait", fx(r.mean_queue_wait(), 2)),
        ("mean available machines", fx(available, 2)),
    ];
    if a.num("--mtbf").is_some() {
        let w = f64::from(x.workstations);
        let up = |m: &SchedMetrics| {
            if m.makespan == 0.0 {
                1.0
            } else {
                1.0 - m.downtime / (w * m.makespan)
            }
        };
        rows.push(("crashes", mean(|m| m.crashes as f64)));
        rows.push(("crash-destroyed CPU", mean(|m| m.crash_lost)));
        rows.push(("machine downtime", mean(|m| m.downtime)));
        rows.push(("observed availability", fx(r.mean_over(up), 4)));
    }
    write!(out, "{}", table(x.title, ["metric", "mean"], &rows))?;
    finish(out, a, &sim, r.is_consistent(), CONSERVATION)
}

/// The response and throughput rows `stream` and `replay` share.
fn response_rows(r: &SimReport) -> [(&'static str, String); 5] {
    let (min, max) = (r.response.min, r.response.max);
    [
        ("observed jobs (post warm-up)", r.response.jobs.to_string()),
        ("fastest / slowest response", format!("{min:.1} / {max:.1}")),
        ("mean makespan", fx(r.mean_makespan(), 1)),
        ("goodput fraction", fx(r.mean_goodput_fraction(), 4)),
        ("mean queue wait", fx(r.mean_queue_wait(), 2)),
    ]
}

fn cmd_stream(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let x = experiment(a, Family::Stream, 1)?;
    let sim = x.builder.build()?;
    let r = sim.run()?;
    let ss = r.steady_state.as_ref();
    let ss = ss.expect("open workloads always report steady state");
    let (ci, lag1) = (&ss.response, ss.diagnostic.lag1);
    let (lo, hi, batches, size) = (ci.lower(), ci.upper(), ci.batches, ci.batch_size);
    let verdict = if ss.diagnostic.acceptable {
        "acceptable"
    } else {
        "grow the batch size"
    };
    let mut rows = vec![
        ("steady-state mean response", fx(ci.mean, 1)),
        ("90% confidence interval", format!("[{lo:.1}, {hi:.1}]")),
        ("relative half-width", fx(ci.relative_half_width(), 4)),
        ("batches x batch size", format!("{batches} x {size}")),
        (
            "batch lag-1 autocorrelation",
            format!("{lag1:+.3} ({verdict})"),
        ),
    ];
    rows.extend(response_rows(&r));
    write!(out, "{}", table(x.title, ["metric", "value"], &rows))?;
    finish(out, a, &sim, r.is_consistent(), CONSERVATION)
}

fn cmd_gang(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let x = experiment(a, Family::Gang, 5)?;
    let gang = x.gang;
    let sim = x.builder.build()?;
    let r = sim.run()?;
    // The same workload under independent-task scheduling, for the
    // barrier-premium comparison (skipped when gangs are already off).
    let independent = if gang.is_on() {
        let baseline = experiment(a, Family::Gang, 5)?
            .builder
            .gang(GangPolicy::Off);
        let run = baseline.build().and_then(|sim| sim.run());
        Some(run.map_err(|e| failed(format!("independent baseline: {e}")))?)
    } else {
        None
    };
    let mean = |f: fn(&SchedMetrics) -> f64| fx(r.mean_over(f), 1);
    let mut rows = vec![
        ("makespan", fx(r.mean_makespan(), 1)),
        ("mean job response", mean(|m| m.mean_response_time())),
        ("goodput fraction", fx(r.mean_goodput_fraction(), 4)),
        ("evictions", fx(r.mean_evictions(), 1)),
        ("gang starts", mean(|m| m.gang.gang_starts as f64)),
        ("gang suspensions", mean(|m| m.gang.gang_suspensions as f64)),
        ("gang migrations", mean(|m| m.gang.gang_migrations as f64)),
        ("co-allocation wait / gang", fx(r.mean_coalloc_wait(), 1)),
        ("barrier-stall member-time", fx(r.mean_barrier_stall(), 1)),
        ("gang fragmentation", fx(r.mean_fragmentation(), 1)),
    ];
    if gang.is_partial() {
        rows.push(("degraded-mode time", fx(r.mean_degraded_time(), 1)));
        rows.push((
            "effective parallelism",
            fx(r.mean_effective_parallelism(), 2),
        ));
    }
    if let Some(ind) = &independent {
        let premium = r.mean_makespan() / ind.mean_makespan().max(f64::MIN_POSITIVE);
        rows.push(("independent-task makespan", fx(ind.mean_makespan(), 1)));
        rows.push(("barrier premium", format!("{premium:.2}x")));
    }
    write!(out, "{}", table(x.title, ["metric", "mean"], &rows))?;
    let lockstep =
        |m: &SchedMetrics| m.gang.lockstep_violations == 0 && m.gang.floor_violations == 0;
    let holds = r.is_consistent()
        && independent.as_ref().is_none_or(SimReport::is_consistent)
        && r.runs.iter().all(lockstep);
    let claim = ("work conservation + gang lockstep/floor invariants", "hold");
    finish(out, a, &sim, holds, claim)
}

/// The family `trace` records: its optional operand, `sched` if none.
fn trace_family(a: &Args) -> Result<Family, CliError> {
    match a.positionals.first().map_or("sched", String::as_str) {
        "sched" => Ok(Family::Sched),
        "stream" => Ok(Family::Stream),
        "gang" => Ok(Family::Gang),
        other => Err(usage(format!(
            "unknown trace scenario {other} (sched | stream | gang)"
        ))),
    }
}

fn cmd_trace(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let sim = experiment(a, trace_family(a)?, 1)?.builder.build()?;
    let dir = a.text("--out").unwrap_or("traces");
    let flights = trace_to_dir(&sim, dir)?;
    let mut t = Table::new(format!("flight recorder: {}", sim.label())).headers([
        "rep",
        "events",
        "records",
        "makespan",
        "goodput",
        "trace reconciles",
    ]);
    let mut ok = true;
    for f in &flights {
        // The trace's closing accounting totals must match the run's
        // aggregate metrics exactly — the observer reads the same
        // state the metrics are assembled from.
        let reconciles = f.recorder.final_sample().is_some_and(|s| {
            (s.goodput - f.metrics.goodput).abs() <= 1e-9
                && (s.wasted - f.metrics.wasted).abs() <= 1e-9
        });
        ok &= reconciles;
        t.row([
            f.replication.to_string(),
            f.events.to_string(),
            f.recorder.events().len().to_string(),
            fx(f.metrics.makespan, 1),
            fx(f.metrics.goodput, 1),
            (if reconciles { "yes" } else { "NO" }).into(),
        ]);
    }
    write!(out, "{}", t.render())?;
    let files = "rep*.trace.jsonl, rep*.chrome.json (load in Perfetto), rep*.metrics.json, \
                 rep*.profile.json";
    writeln!(out, "\nwrote {files} under {dir}/")?;
    Ok(i32::from(!ok))
}

/// Build `replay`'s streamed run and its table title: the FILE operand
/// on a homogeneous pool, or with none the synthetic datacenter day of
/// `Scenario::DatacenterTrace` (diurnal arrivals, bounded-Pareto sizes,
/// hot/cool owners). Either way the workload streams through the engine
/// in `--chunk`-sized batches, never materialized.
fn replay_sim(a: &Args) -> Result<(Sim, String), CliError> {
    let scenario = Scenario::DatacenterTrace;
    let file = a.positionals.first();
    // File replays default to the paper's 16-station pool; the
    // synthetic day to the scenario's 64 machines.
    let machines = if file.is_some() {
        16
    } else {
        scenario.workstations()[0]
    };
    let machines = a.int("--machines").unwrap_or(machines);
    let chunk = scenario.trace_stream_chunk().expect("trace scenario");
    let chunk = a.int("--chunk").unwrap_or(chunk);
    let (seed, reps) = (
        a.int("--seed").unwrap_or(0x5EED),
        a.int("--reps").unwrap_or(1),
    );
    let warmup = a.int("--warmup");
    let base = Sim::pool(machines)
        .stream_chunk(chunk)
        .seed(seed)
        .replications(reps)
        .shards(a.int("--shards").unwrap_or(1))
        .batches(a.int("--batches").unwrap_or(20))
        .max_events(a.int("--max-events").unwrap_or(200_000_000));
    let base = observe(base, a);
    let (u, o) = (a.num("--utilization"), a.num("--owner-demand"));
    let (sim, what) = match file {
        Some(path) => {
            if a.int::<usize>("--jobs").is_some() {
                return Err(usage("--jobs sizes the synthetic day; a FILE sets its own"));
            }
            // File traces carry no owner model, so the pool is
            // homogeneous at the --utilization / --owner-demand
            // behaviour.
            let (u, o) = (u.unwrap_or(0.10), o.unwrap_or(10.0));
            let mut workload = TraceWorkload::from_path(path)?;
            if let Some(k) = warmup {
                workload = workload.warmup(k);
            }
            let owner = OwnerWorkload::continuous_exponential(o, u).map_err(usage)?;
            let what = format!("{path} on {machines} homogeneous machines (U={u}, O={o})");
            (base.owners(owner).workload(workload).build()?, what)
        }
        None => {
            if u.or(o).is_some() {
                return Err(usage(
                    "--utilization and --owner-demand need a FILE: the day has its own owners",
                ));
            }
            let jobs = a.int("--jobs").unwrap_or(1_200);
            let mut day = SyntheticTrace::datacenter(machines, jobs);
            if let Some(k) = warmup {
                day = day.warmup(k);
            }
            let owners = day.owners(seed, 0)?;
            let what = format!("synthetic datacenter day, {machines} machines x {jobs} jobs");
            (base.owners(owners).workload(day).build()?, what)
        }
    };
    let title = format!("trace replay: {what}, streamed in chunks of {chunk} ({reps} reps)");
    Ok((sim, title))
}

fn cmd_replay(a: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let (sim, title) = replay_sim(a)?;
    let r = sim.run()?;
    let mut rows = Vec::new();
    if let Some(ci) = r.steady_state.as_ref().map(|ss| &ss.response) {
        let (lo, hi, batches, size) = (ci.lower(), ci.upper(), ci.batches, ci.batch_size);
        rows.push(("steady-state mean response", fx(ci.mean, 1)));
        rows.push(("confidence interval", format!("[{lo:.1}, {hi:.1}]")));
        rows.push(("batches x batch size", format!("{batches} x {size}")));
    }
    rows.extend(response_rows(&r));
    rows.push(("evictions", fx(r.mean_evictions(), 1)));
    write!(out, "{}", table(title, ["metric", "value"], &rows))?;
    finish(out, a, &sim, r.is_consistent(), CONSERVATION)
}

/// Pull the sim time out of a flight-recorder JSONL record. Every
/// record the recorder writes starts `{"t":<number>,` — anything else
/// (or a bare metrics line) just doesn't advance the clock.
fn record_time(line: &str) -> Option<f64> {
    let rest = line.strip_prefix("{\"t\":")?;
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// One side of a trace diff: its path and its unread records.
type Side<'a> = (&'a str, io::Lines<io::BufReader<std::fs::File>>);

/// The side's next record, or `None` once its trace has ended.
fn next_record(side: &mut Side) -> Result<Option<String>, CliError> {
    let (path, lines) = side;
    let next = lines.next().transpose();
    next.map_err(|e| usage(format!("reading {path}: {e}")))
}

/// Stream both traces line by line, remembering only a `--context`-deep
/// window, and report the first mismatch (exit 1) or byte-identity
/// (exit 0). Memory stays O(context) regardless of trace length; a
/// length mismatch is a divergence at the shorter trace's end.
fn cmd_diff_trace(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    let (path_a, path_b) = (args.positionals[0].as_str(), args.positionals[1].as_str());
    let context = args.int("--context").unwrap_or(3);
    let open = |p| match std::fs::File::open(p) {
        Ok(f) => Ok((p, io::BufReader::new(f).lines())),
        Err(e) => Err(usage(format!("{p}: {e}"))),
    };
    let (mut a, mut b) = (open(path_a)?, open(path_b)?);
    let mut before = std::collections::VecDeque::new();
    let (mut line, mut last_agreed_t) = (0u64, None);
    let (record_a, record_b) = loop {
        line += 1;
        let (record_a, record_b) = (next_record(&mut a)?, next_record(&mut b)?);
        if record_a != record_b {
            break (record_a, record_b);
        }
        let Some(agreed) = record_a else {
            writeln!(out, "compared {} records: no divergence", line - 1)?;
            return Ok(0);
        };
        last_agreed_t = record_time(&agreed).or(last_agreed_t);
        if context > 0 {
            if before.len() == context {
                before.pop_front();
            }
            before.push_back(agreed);
        }
    };
    let after = |side: &mut Side| -> Result<Vec<String>, CliError> {
        std::iter::from_fn(|| next_record(&mut *side).transpose())
            .take(context)
            .collect()
    };
    let (after_a, after_b) = (after(&mut a)?, after(&mut b)?);
    let end = "<end of trace>";
    writeln!(out, "first divergent record at line {line}:")?;
    let last = last_agreed_t.map_or("none (no agreed record carried one)".into(), |t| {
        format!("t={t}")
    });
    writeln!(out, "  last agreeing sim-time: {last}")?;
    if !before.is_empty() {
        writeln!(out, "  agreed context (newest last):")?;
        for l in &before {
            writeln!(out, "    = {l}")?;
        }
    }
    writeln!(out, "  A {path_a}: {}", record_a.as_deref().unwrap_or(end))?;
    writeln!(out, "  B {path_b}: {}", record_b.as_deref().unwrap_or(end))?;
    for (label, after) in [(path_a, after_a), (path_b, after_b)] {
        if !after.is_empty() {
            writeln!(out, "  next {} record(s) from {label}:", after.len())?;
            for l in &after {
                writeln!(out, "    > {l}")?;
            }
        }
    }
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The values an argv token is drawn from, besides flag names.
    const VALUES: [&str; 7] = ["0", "1", "2", "0.5", "-1", "abc", "nan"];

    /// Every flag some table declares, once each.
    fn all_flags() -> Vec<&'static str> {
        let rows = COMMANDS.iter().flat_map(Command::rows);
        let mut names: Vec<_> = rows.map(Flag::name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The exit code `nds <argv>` reaches when it parses the line and
    /// builds what the command would run, stopping before any
    /// simulation starts. The analytic commands and `diff-trace` are
    /// cheap, so they run in full against a discarded stdout.
    fn probe(argv: &[String]) -> i32 {
        let cmd = COMMANDS.iter().find(|c| c.name() == argv[0]);
        let cmd = cmd.expect("argv starts with a command");
        let build = |a: &Args| -> Result<i32, CliError> {
            let family = match cmd.name() {
                "sched" => Family::Sched,
                "stream" => Family::Stream,
                "gang" => Family::Gang,
                "trace" => trace_family(a)?,
                "replay" => return replay_sim(a).map(|_| 0),
                "validate" => return Ok(0),
                _ => return (cmd.run)(a, &mut io::sink()),
            };
            experiment(a, family, 1)?.builder.build()?;
            Ok(0)
        };
        match parse(cmd, &argv[1..]) {
            Ok(Some(args)) => build(&args).unwrap_or_else(|e| e.0),
            Ok(None) => 0,
            Err(e) => e.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random lines over the command names, every table flag and a
        /// few awkward values never panic, only exit 0, 1 or 2, and
        /// exit 2 whenever a `--` token is outside the command's table.
        #[test]
        fn random_argv_exits_cleanly(
            cmd in 0u32..11,
            picks in proptest::collection::vec((0u32..5, 0u32..64, 0u32..64), 0..6),
        ) {
            let flags = all_flags();
            let command = &COMMANDS[cmd as usize];
            let own: Vec<_> = command.rows().map(Flag::name).collect();
            let names = COMMANDS.iter().map(Command::name);
            let words: Vec<_> = VALUES.into_iter().chain(names).collect();
            let mut argv = vec![command.name().to_string()];
            for (shape, flag, word) in picks {
                // Mostly the command's own flags with a value; sometimes
                // any table's flag, a flag with no value, or a lone word.
                let value = VALUES[word as usize % VALUES.len()];
                let flag = match shape {
                    0..=2 if !own.is_empty() => own[flag as usize % own.len()],
                    _ => flags[flag as usize % flags.len()],
                };
                match shape {
                    0 | 1 | 3 => argv.extend([flag.to_string(), value.to_string()]),
                    2 => argv.push(flag.to_string()),
                    _ => argv.push(words[word as usize % words.len()].to_string()),
                }
            }
            let code = probe(&argv);
            prop_assert!((0..=2).contains(&code), "{argv:?} exited {code}");
            let foreign = argv.iter().any(|t| t.starts_with("--") && !own.contains(&t.as_str()));
            if foreign {
                prop_assert_eq!(code, 2, "{:?}", argv);
            }
        }
    }

    #[test]
    fn tables_are_well_formed() {
        let rows = || COMMANDS.iter().flat_map(Command::rows);
        for cmd in &COMMANDS {
            let mut names: Vec<_> = cmd.rows().map(Flag::name).collect();
            let count = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), count, "{} declares a flag twice", cmd.name());
            assert!(!names.contains(&"--help"), "--help is every command's");
            for flag in cmd.rows() {
                let (name, help) = split_row(flag.1);
                assert!(name.starts_with("--") && !help.is_empty(), "{}", flag.1);
                // One name, one kind: the debug read check relies on it.
                let kind = std::mem::discriminant(&flag.0);
                let same = |f: &&Flag| f.name() == name;
                assert!(rows()
                    .filter(same)
                    .all(|f| std::mem::discriminant(&f.0) == kind));
            }
        }
    }

    #[test]
    fn help_lists_every_command_and_row() {
        let mut overview = Vec::new();
        assert!(matches!(cmd_help(&Args::default(), &mut overview), Ok(0)));
        let overview = String::from_utf8(overview).unwrap();
        for cmd in &COMMANDS {
            assert!(overview.contains(split_row(cmd.usage).0), "{}", cmd.usage);
            let mut text = Vec::new();
            assert!(matches!(help(cmd, &mut text), Ok(0)));
            let text = String::from_utf8(text).unwrap();
            let rows = cmd.rows().map(|f| split_row(f.1));
            for (name, help) in rows.chain([("--help", "print this help")]) {
                assert!(text.contains(name) && text.contains(help), "{name}");
            }
        }
    }
}
