//! End-to-end exit-code contract of the `provmin` binary:
//!
//! * `0` — success
//! * `1` — runtime error (malformed query/database, missing file)
//! * `2` — usage error (unknown command/flag shape)
//! * `3` — budget-exhausted minimization: *sound partial* result plus a
//!   machine-readable resume cursor, both on **stdout**
//!
//! Code 3 is the one automation scripts branch on (resume vs. accept),
//! so it must stay distinct from the generic error codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn provmin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_provmin"))
        .args(args)
        .output()
        .expect("provmin binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("not killed by a signal")
}

/// A temp database file dropped on scope exit.
struct TempDb {
    path: PathBuf,
}

impl TempDb {
    fn new(name: &str, contents: &str) -> TempDb {
        let path =
            std::env::temp_dir().join(format!("provmin_cli_{name}_{}.db", std::process::id()));
        std::fs::write(&path, contents).expect("temp db writes");
        TempDb { path }
    }

    fn path(&self) -> &str {
        self.path.to_str().expect("utf8 temp path")
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

const TABLE_2: &str = "R(a, a) : s1\nR(a, b) : s2\nR(b, a) : s3\nR(b, b) : s4\n";

#[test]
fn budget_exhausted_minimize_exits_3_with_cursor_on_stdout() {
    let output = provmin(&[
        "minimize",
        "--budget-steps",
        "1",
        "ans(x) :- R(x,y), R(y,z)",
    ]);
    assert_eq!(code(&output), 3, "partial result must exit 3");
    let out = stdout(&output);
    let cursor_line = out
        .lines()
        .find(|l| l.starts_with("resume-cursor: "))
        .unwrap_or_else(|| panic!("no resume cursor on stdout; got: {out:?}"));
    // Machine-readable: "resume-cursor: adjunct N completion M".
    let fields: Vec<&str> = cursor_line.split_whitespace().collect();
    assert_eq!(fields.len(), 5, "cursor line shape: {cursor_line:?}");
    assert_eq!((fields[1], fields[3]), ("adjunct", "completion"));
    assert!(fields[2].parse::<u64>().is_ok() && fields[4].parse::<u64>().is_ok());
    // The sound partial result precedes the cursor.
    assert!(
        out.lines().next().is_some_and(|l| l.contains(":-")),
        "partial query must be printed first: {out:?}"
    );
}

#[test]
fn generous_budget_completes_with_exit_0() {
    let output = provmin(&[
        "minimize",
        "--budget-steps",
        "100000",
        "ans(x) :- R(x,y), R(y,z)",
    ]);
    assert_eq!(code(&output), 0);
    assert!(!stdout(&output).contains("resume-cursor"));
}

#[test]
fn malformed_query_is_1_not_3() {
    let output = provmin(&["minimize", "this is not a query"]);
    assert_eq!(code(&output), 1, "parse errors are generic failures");
    let output = provmin(&["minimize", "--budget-steps", "1", "also ! not ! a ! query"]);
    assert_eq!(
        code(&output),
        1,
        "a malformed budgeted run is still a parse error, never a partial"
    );
}

#[test]
fn malformed_database_is_1_and_missing_file_is_1() {
    let db = TempDb::new("malformed", "R(a : oops\n");
    let output = provmin(&["eval", db.path(), "ans(x) :- R(x,x)"]);
    assert_eq!(code(&output), 1);
    let output = provmin(&["eval", "/nonexistent/provmin.db", "ans(x) :- R(x,x)"]);
    assert_eq!(code(&output), 1);
}

#[test]
fn usage_errors_are_2() {
    assert_eq!(code(&provmin(&[])), 2);
    assert_eq!(code(&provmin(&["frobnicate"])), 2);
    assert_eq!(
        code(&provmin(&["minimize", "--budget-steps", "NaN", "q"])),
        2
    );
    assert_eq!(
        code(&provmin(&["serve", "--no-such-flag"])),
        2,
        "unknown serve flags are usage errors like every other subcommand"
    );
    assert_eq!(code(&provmin(&["serve", "--workers", "0"])), 2);
    // Runtime serve failures (unloadable db) stay exit 1.
    assert_eq!(
        code(&provmin(&["serve", "--db", "/nonexistent/provmin.db"])),
        1
    );
}

#[test]
fn eval_succeeds_and_removed_tuple_flag_is_usage() {
    let db = TempDb::new("table2", TABLE_2);
    let query = "ans(x) :- R(x,y), R(y,x), x != y ; ans(x) :- R(x,x)";
    let output = provmin(&["eval", db.path(), query]);
    assert_eq!(code(&output), 0);
    assert!(stdout(&output).contains("(a)"));
    // One pipeline, planned and memoized by the engine itself: no flag
    // selects a path, a planner or the memo. Threads are capped at 64
    // because each is an OS thread.
    for args in [
        vec!["eval", "--tuple", db.path(), query],
        vec!["eval", "--planner", "cost", db.path(), query],
        vec!["minimize", "--no-memo", query],
        vec!["eval", "--threads", "100000", db.path(), query],
    ] {
        let output = provmin(&args);
        assert_eq!(code(&output), 2, "{args:?} is a usage error");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("usage:"),
            "{args:?} prints usage"
        );
    }
    assert_eq!(
        code(&provmin(&["eval", "--threads", "64", db.path(), query])),
        0
    );
}

// ------------------------------------------------------------- fuzz

#[test]
fn fuzz_agreement_is_0_with_a_summary() {
    let output = provmin(&["fuzz", "--spec", "fanout", "--seed", "11", "--cases", "8"]);
    assert_eq!(code(&output), 0);
    let text = stdout(&output);
    assert!(text.contains("fuzz: OK"), "summary line: {text}");
    assert!(
        text.contains("spec=fanout") && text.contains("seed=11"),
        "summary names the reproducing pair: {text}"
    );
}

#[test]
fn fuzz_divergence_is_1_with_the_replay_triple() {
    // The injection hook fabricates a divergence at case 5, exercising
    // the real reporting path end to end without planting an engine bug.
    let output = Command::new(env!("CARGO_BIN_EXE_provmin"))
        .args(["fuzz", "--spec", "mixed", "--seed", "9", "--cases", "20"])
        .env("PROVMIN_FUZZ_INJECT_CASE", "5")
        .output()
        .expect("provmin binary runs");
    assert_eq!(code(&output), 1, "divergence is exit 1");
    let text = stdout(&output);
    assert!(
        text.contains("fuzz: DIVERGENCE spec=mixed seed=9 case=5"),
        "the (spec, seed, case) triple is printed: {text}"
    );
    assert!(
        text.contains("replay: provmin fuzz --spec mixed --seed 9 --case 5"),
        "a copy-pasteable replay command is printed: {text}"
    );

    // The printed triple really replays: --case pins exactly that case.
    let replay = Command::new(env!("CARGO_BIN_EXE_provmin"))
        .args(["fuzz", "--spec", "mixed", "--seed", "9", "--case", "5"])
        .env("PROVMIN_FUZZ_INJECT_CASE", "5")
        .output()
        .expect("provmin binary runs");
    assert_eq!(code(&replay), 1, "the triple reproduces the divergence");
    assert!(stdout(&replay).contains("case=5"));

    // Without the injected bug the same triple agrees: exit 0.
    let clean = provmin(&["fuzz", "--spec", "mixed", "--seed", "9", "--case", "5"]);
    assert_eq!(code(&clean), 0, "same triple is clean without the bug");
}

#[test]
fn fuzz_flag_errors_are_2() {
    assert_eq!(code(&provmin(&["fuzz", "--spec", "no-such-spec"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--seed", "NaN"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--cases", "0"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--cases"])), 2, "missing value");
    assert_eq!(code(&provmin(&["fuzz", "--frobnicate"])), 2);
    // Eval/minimize flags don't leak into fuzz.
    assert_eq!(code(&provmin(&["fuzz", "--threads", "2"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--chunk-rows", "many"])), 2);
}

#[test]
fn fuzz_chunk_rows_overrides_the_eval_matrix() {
    // `--chunk-rows` is shared with eval/core; the fuzz subcommand must
    // still receive it (not the global eval-flag extraction).
    let output = provmin(&[
        "fuzz",
        "--spec",
        "fanout",
        "--seed",
        "11",
        "--cases",
        "4",
        "--chunk-rows",
        "3",
    ]);
    assert_eq!(
        code(&output),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout(&output).contains("fuzz: OK"));
}

#[test]
fn fuzz_list_specs_prints_every_builtin() {
    let output = provmin(&["fuzz", "--list-specs"]);
    assert_eq!(code(&output), 0);
    let text = stdout(&output);
    for name in [
        "mixed",
        "fanout",
        "cycles",
        "ucq-overlap",
        "diseq",
        "constants",
        "soak",
    ] {
        assert!(text.lines().any(|l| l == name), "{name} listed: {text}");
    }
}

/// `GET /stats` over a fresh connection: whether it answered 200.
fn stats_answers_200(addr: &str) -> bool {
    use std::io::{Read, Write};
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    if stream
        .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply.starts_with(b"HTTP/1.1 200 ")
}

#[cfg(unix)]
#[test]
fn sigterm_right_after_the_first_stats_200_drains_cleanly() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let db = TempDb::new("sigterm", TABLE_2);
    let data_dir = std::env::temp_dir().join(format!("provmin_cli_sigterm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_provmin"))
        .args(["serve", "--addr", &addr, "--db", db.path(), "--data-dir"])
        .arg(&data_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("provmin serve spawns");
    // Poll without waiting for the "listening" line: the signal must land
    // as early as a client can know the server is up.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !stats_answers_200(&addr) {
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "serve exited during start-up"
        );
        assert!(Instant::now() < deadline, "no 200 on /stats within 30 s");
        std::thread::sleep(Duration::from_micros(200));
    }
    let pid = i32::try_from(child.id()).expect("pid fits i32");
    // SAFETY: `kill(2)` takes two integers and touches no memory of this
    // process; `pid` is an unreaped child, so it names no other process.
    unsafe {
        kill(pid, SIGTERM);
    }
    let output = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let _ = std::fs::remove_dir_all(&data_dir);
    assert_eq!(
        output.status.code(),
        Some(0),
        "SIGTERM must drain to a clean exit, not kill the process: {stderr}"
    );
    assert!(stderr.contains("SIGTERM — draining"), "{stderr}");
    assert!(
        stderr.contains("provmin serve: shutdown complete"),
        "{stderr}"
    );
}
