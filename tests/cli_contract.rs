//! The `nds` command-line contract, driven through the built binary.
//!
//! * Every documented invocation (README, CI, the `nds.rs` module
//!   docs) prints the stdout and exit code pinned in
//!   `tests/golden/cli.txt`.
//! * Every input the flag tables reject exits 2 with `<cmd>: <reason>`
//!   on stderr and nothing on stdout: unknown, repeated, value-less,
//!   unparsable and out-of-range flags, and stray positionals.
//! * `--help` prints without running anything, positionals count
//!   wherever they stand, and a closed stdout or stderr exits 0.
//!
//! Every invocation runs from a scratch working directory, so trace
//! directories print relative. Regenerate the golden (only when a
//! documented output changes on purpose) with:
//!
//! ```text
//! NDS_REGEN_GOLDEN=1 cargo test -q --test cli_contract
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const GOLDEN_PATH: &str = "tests/golden/cli.txt";
const FIXTURE: &str = "tests/data/datacenter_small.csv";

/// The documented invocations, in an order where every trace a
/// `diff-trace` compares has already been written. CI's `/tmp/...`
/// directories become `tmp/...` so each run stays in its scratch
/// directory.
const DOCUMENTED: &[&str] = &[
    // nds.rs module docs.
    "analyze --job 7200 --workstations 60 --owner-demand 10 --utilization 0.10",
    "thresholds",
    "thresholds --target 0.8",
    "validate",
    "validate --quick",
    "sensitivity --task 100 --workstations 60 --owner-demand 10 --utilization 0.10",
    "sched --workstations 16 --utilization 0.10 --eviction checkpoint",
    "stream --rate 0.02 --utilization 0.10 --jobs 400",
    "gang --gang-size 8 --utilization 0.10 --gang suspend-all",
    "trace sched --out traces",
    "replay tests/data/datacenter_small.csv --machines 64 --chunk 4096",
    // README.
    "sched --workstations 16 --utilization 0.10 --eviction checkpoint --interval 30 --overhead 1",
    "stream --rate 0.04 --utilization 0.10",
    "gang --gang-size 8 --utilization 0.10",
    "gang --min-running 2 --utilization 0.10",
    "trace sched --reps 2 --out traces",
    "sched --trace traces --metrics-every 50",
    "trace sched --cheap --trace-capacity 4096 --out traces",
    "sched --progress 5",
    "trace sched --out before",
    "trace sched --out after",
    "diff-trace before/rep0.trace.jsonl after/rep0.trace.jsonl --context 3",
    "replay --machines 64 --jobs 5000",
    "replay tests/data/datacenter_small.csv --chunk 64",
    "replay --progress 1 --trace traces --cheap",
    "sched --mtbf 120 --mttr 15 --eviction adaptive --threshold 60 --interval 30 --reps 5",
    "gang --mtbf 300 --gang partial --min-running 2",
    "analyze",
    "sensitivity",
    // CI.
    "trace sched --reps 2 --out tmp/traces",
    "trace gang --out tmp/traces-gang",
    "trace sched --out tmp/diff-a",
    "trace sched --cheap --trace-capacity 256 --out tmp/diff-b",
    "diff-trace tmp/traces/rep0.trace.jsonl tmp/diff-a/rep0.trace.jsonl",
    "diff-trace tmp/diff-a/rep0.trace.jsonl tmp/diff-b/rep0.trace.jsonl",
    "replay --jobs 5000 --progress 0.05 --trace tmp/replay --cheap",
    // The build-and-drive notes.
    "sched --reps 2",
];

/// The ten subcommands `nds help` lists.
const COMMANDS: [&str; 10] = [
    "analyze",
    "thresholds",
    "validate",
    "sensitivity",
    "sched",
    "stream",
    "gang",
    "trace",
    "replay",
    "diff-trace",
];

fn nds(dir: &Path, line: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nds"));
    cmd.current_dir(dir).args(line.split_whitespace());
    cmd
}

/// A fresh scratch working directory holding a copy of the fixture
/// trace at its repository-relative path.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_BIN_EXE_nds"))
        .parent()
        .expect("bin dir")
        .join(format!("cli_contract_{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("tests/data")).expect("scratch dir");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    std::fs::copy(fixture, dir.join(FIXTURE)).expect("fixture copied");
    dir
}

/// Exit code, stdout and stderr of `nds <line>` run in `dir`.
fn run(dir: &Path, line: &str) -> (Option<i32>, String, String) {
    let out = nds(dir, line).output().expect("nds runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn documented_invocations_match_golden() {
    let dir = scratch("golden");
    let mut rendered = String::new();
    for line in DOCUMENTED {
        let (code, stdout, stderr) = run(&dir, line);
        assert!(
            !stderr.contains("panicked"),
            "`nds {line}` panicked: {stderr}"
        );
        let code = code.expect("nds exits with a code");
        write!(rendered, "$ nds {line}\n{stdout}[exit {code}]\n\n").unwrap();
    }
    if std::env::var_os("NDS_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists (regenerate with NDS_REGEN_GOLDEN=1)");
    let split = |s: &str| s.split("\n$ nds ").map(str::to_owned).collect::<Vec<_>>();
    for (got, want) in split(&rendered).iter().zip(split(&golden).iter()) {
        assert_eq!(got, want, "a documented invocation changed its output");
    }
    assert_eq!(rendered, golden, "the documented invocation list changed");
}

/// Run `line` and check it is a usage error: exit 2, one `<cmd>: `
/// line on stderr (`nds: ` for an unknown command), nothing on stdout.
/// Returns the stderr.
fn assert_usage_error(dir: &Path, line: &str) -> String {
    let (code, stdout, stderr) = run(dir, line);
    let first = line.split_whitespace().next().unwrap_or_default();
    let cmd = if COMMANDS.contains(&first) || first == "help" {
        first
    } else {
        "nds"
    };
    assert_eq!(code, Some(2), "`nds {line}` must exit 2; stderr: {stderr}");
    assert!(
        stdout.is_empty(),
        "`nds {line}` printed to stdout: {stdout}"
    );
    assert!(
        stderr.starts_with(&format!("{cmd}: ")) && stderr.lines().count() == 1,
        "`nds {line}` must report one `{cmd}: ` line, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "`nds {line}` panicked");
    stderr
}

#[test]
fn rejected_inputs_exit_two() {
    let dir = scratch("rejected");
    let analyze = |w: &str| {
        format!("analyze --job 7200 --workstations {w} --owner-demand 10 --utilization 0.10")
    };
    for line in [
        // A misspelled flag.
        "sched --utilisation 0.5",
        "validate --quik",
        // Unparsable values.
        "sched --utilization abc",
        "sched --mtbf zero",
        // A repeated flag.
        "sched --utilization 0.2 --utilization 0.5",
        // A flag with no value, including one followed by another flag.
        "sched --seed",
        "diff-trace a.jsonl b.jsonl --context",
        "sched --seed --reps 2",
        // Counts that must be at least one.
        "sched --reps 0",
        "replay --chunk 0",
        "replay --shards 0",
        // A stray positional.
        "sched --reps 1 stray",
        // A flag outside the command's table.
        "trace sched --placement random",
        // `--name=value` is not a spelling.
        "sched --utilization=0.5",
        // An invalid target is not a table of "-".
        "thresholds --target 2",
        "thresholds --target nan",
        // Operands: an unknown trace scenario, a missing trace path.
        "trace bogus",
        "diff-trace only-one.jsonl",
        "help sched",
        // Replay flags the chosen workload cannot use.
        "replay --utilization 0.5",
        "replay tests/data/datacenter_small.csv --jobs 5",
        // A gang the pool can never co-allocate, run or traced.
        "gang --gang-size 99 --workstations 8",
        "trace gang --workstations 2",
    ] {
        assert_usage_error(&dir, line);
    }
    for w in ["60.7", "1e12"] {
        assert_usage_error(&dir, &analyze(w));
    }
    let stderr = assert_usage_error(&dir, &analyze("-3"));
    assert!(stderr.contains("-3"), "the message must name -3: {stderr}");
    let stderr = assert_usage_error(&dir, "bogus --reps 2");
    assert!(stderr.contains("unknown command"), "{stderr}");
}

/// A policy flag the chosen policy never reads is rejected, not
/// silently ignored. The same flags under a policy that reads them run
/// in the documented invocations (`--eviction checkpoint --interval 30
/// --overhead 1`, `--eviction adaptive --threshold 60`, `--gang partial
/// --min-running 2`).
#[test]
fn inert_policy_flags_exit_two() {
    let dir = scratch("inert");
    for (line, flag) in [
        ("sched --eviction restart --interval 5", "--interval"),
        ("sched --eviction checkpoint --threshold 5", "--threshold"),
        ("sched --eviction suspend --overhead 9", "--overhead"),
        (
            "gang --gang suspend-all --min-running-frac 0.5",
            "--min-running-frac",
        ),
        ("gang --gang suspend-all --min-running 3", "--min-running"),
        // Two floors: the fraction used to win without a word.
        (
            "gang --gang partial --min-running 3 --min-running-frac 0.5",
            "--min-running-frac",
        ),
    ] {
        let stderr = assert_usage_error(&dir, line);
        assert!(
            stderr.contains(flag),
            "`nds {line}` must name {flag}: {stderr}"
        );
    }
}

#[test]
fn positionals_count_anywhere_on_the_line() {
    let dir = scratch("positionals");
    let first = run(&dir, "replay tests/data/datacenter_small.csv --chunk 64");
    let last = run(&dir, "replay --chunk 64 tests/data/datacenter_small.csv");
    assert_eq!(first.0, Some(0), "{}", first.2);
    assert!(
        first.1.contains(FIXTURE),
        "the file is replayed: {}",
        first.1
    );
    assert_eq!(first.1, last.1, "a trailing FILE must be replayed too");
    let first = run(&dir, "trace gang --out tmp/g");
    let last = run(&dir, "trace --out tmp/g gang");
    assert_eq!(first.0, Some(0), "{}", first.2);
    assert_eq!(first.1, last.1, "a trailing scenario must be traced too");
}

#[test]
fn help_prints_and_runs_nothing() {
    let dir = scratch("help");
    let (code, overview, stderr) = run(&dir, "help");
    assert_eq!(code, Some(0), "{stderr}");
    for cmd in COMMANDS {
        assert!(overview.contains(cmd), "`nds help` must list {cmd}");
        let (code, stdout, stderr) = run(&dir, &format!("{cmd} --help"));
        assert_eq!(code, Some(0), "`nds {cmd} --help`: {stderr}");
        assert!(
            stderr.is_empty(),
            "`nds {cmd} --help` wrote stderr: {stderr}"
        );
        assert!(stdout.contains(cmd), "`nds {cmd} --help` names its command");
        assert!(!stdout.contains("work conservation"), "`{cmd} --help` ran");
    }
    assert_eq!(run(&dir, "").1, overview, "no command prints the overview");
    assert_eq!(run(&dir, "--help").1, overview, "so does a bare --help");
    // Each of replay and trace points at the other.
    assert!(run(&dir, "trace --help").1.contains("replay"));
    assert!(run(&dir, "replay --help").1.contains("trace"));
    // Nothing was recorded: `trace --help` wrote no traces.
    assert!(
        !dir.join("traces").exists(),
        "`trace --help` ran the recorder"
    );
    let (_, trace_help, _) = run(&dir, "trace --help");
    for flag in [
        "--out",
        "--workstations",
        "--utilization",
        "--owner-demand",
        "--seed",
        "--reps",
        "--metrics-every",
        "--progress",
        "--cheap",
        "--trace-capacity",
    ] {
        assert!(trace_help.contains(flag), "`trace --help` lists {flag}");
    }
}

#[test]
fn closed_stdout_exits_zero() {
    let dir = scratch("closed_stdout");
    assert_eq!(run(&dir, "trace sched --out t").0, Some(0));
    for line in [
        "sched",
        "sched --help",
        "diff-trace t/rep0.trace.jsonl t/rep0.trace.jsonl",
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = nds(&dir, line)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("nds runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "`nds {line}`: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "`nds {line}` panicked: {stderr}"
        );
    }
}

#[test]
fn closed_stderr_heartbeat_exits_zero() {
    let dir = scratch("closed_stderr");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = nds(&dir, "replay --jobs 20000 --progress 0.001")
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("nds runs");
    assert_eq!(
        status.code(),
        Some(0),
        "a heartbeat nobody reads is no failure"
    );
}

#[test]
fn full_stdout_exits_one() {
    let dir = scratch("full_stdout");
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = nds(&dir, "sched")
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("nds runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("sched: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
