//! Adversarial protocol tests for the resident server.
//!
//! Three contracts, enforced against a live `wrt serve` instance over
//! real sockets:
//!
//! * **Token soup never kills the server.**  Requests assembled from a
//!   fuzz alphabet of real verbs, real flags, and garbage always get a
//!   framed `ok`/`err` response — never a panic, never a hang (every
//!   runaway verb is cut short by the server's default deadline), never
//!   a dropped connection.
//! * **Malformed frames are structured errors.**  Oversized lines,
//!   invalid UTF-8, blank lines, CRLF, and pipelined requests all
//!   resolve to well-formed frames.
//! * **Concurrent sessions ≡ serial.**  N threads interleaving verbs
//!   over persistent connections receive responses bit-identical to a
//!   serial run of the same verbs against the same registry.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use wrt::serve::protocol::{read_response, LineReader, MAX_LINE};
use wrt::serve::{client, execute, spawn, ExecContext, Registry, ServerHandle};

/// Per-request safety net: any runaway verb the fuzzer assembles is
/// interrupted at its next budget check-in.
const DEADLINE: Duration = Duration::from_millis(300);

/// One long-lived server shared by every case in this binary (spawning
/// per fuzz case would dominate the run).  Deliberately never shut
/// down — process exit reaps it.
fn fuzz_addr() -> &'static str {
    static SERVER: OnceLock<(ServerHandle, String)> = OnceLock::new();
    let (_, addr) = SERVER.get_or_init(|| {
        let handle = spawn(Arc::new(Registry::new()), "127.0.0.1:0", Some(DEADLINE))
            .expect("fuzz server spawns");
        let addr = handle.addr().to_string();
        (handle, addr)
    });
    addr
}

/// Writes raw bytes on a fresh connection and reads one response frame.
/// The outer `Err` is a transport/framing failure — the fuzz contract is
/// that it never happens for newline-terminated input.
fn raw_response(bytes: &[u8]) -> Result<Result<String, String>, String> {
    let stream = TcpStream::connect(fuzz_addr()).expect("connect");
    (&stream).write_all(bytes).expect("send");
    let mut reader = LineReader::new(&stream);
    read_response(&mut reader, &mut || true)
}

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(ToString::to_string).collect()
}

/// The fuzz alphabet: every verb the server speaks, the flags they take,
/// plausible values, and garbage.  Deliberately absent: `--out`,
/// `--checkpoint`, `--resume` (no fuzz case may touch the filesystem),
/// `--time-limit` (must not override the safety-net deadline), big
/// workload names (the deadline would cut them off anyway, but slowly),
/// and `shutdown` (the server is shared across cases).
const ALPHABET: &[&str] = &[
    "stats",
    "analyze",
    "estimate",
    "eco",
    "simulate",
    "optimize",
    "atpg",
    "workloads",
    "stat",
    "load",
    "flush",
    "help",
    "generate",
    "s1",
    "#1",
    "#999999",
    "#nope",
    "--top",
    "3",
    "--json",
    "--lint",
    "--weights",
    "0.5,0.5",
    "0.25",
    "--set",
    "G10=OR",
    "x=NAND",
    "=",
    "--patterns",
    "64",
    "--confidence",
    "0.95",
    "--grid",
    "2",
    "--threads",
    "2",
    "--seed",
    "7",
    "--gates",
    "32",
    "--engine",
    "cop",
    "--guidance",
    "scoap",
    "--max-evals",
    "5",
    "nonsense",
    "--",
    "-1",
    "1e309",
    "NaN",
    "\u{2603}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn token_soup_always_gets_a_frame_and_never_kills_the_server(
        // At least one token: a blank line is a keep-alive the server
        // deliberately never answers (covered by the pipelining test).
        tokens in proptest::collection::vec(prop::sample::select(ALPHABET.to_vec()), 1..6),
    ) {
        let mut line = tokens.join(" ");
        line.push('\n');
        let response = raw_response(line.as_bytes());
        prop_assert!(response.is_ok(), "transport failure on {line:?}: {response:?}");
        // The server must still answer a known-good request afterwards.
        let alive = client::run(fuzz_addr(), &strs(&["workloads"]));
        prop_assert!(alive.is_ok(), "server unhealthy after {line:?}: {alive:?}");
    }
}

#[test]
fn oversized_lines_are_refused_with_an_err_frame() {
    let mut line = vec![b'a'; MAX_LINE + 1];
    line.push(b'\n');
    let response = raw_response(&line).expect("a frame must come back");
    let message = response.expect_err("oversized input is an error");
    assert!(message.contains("exceeds"), "unexpected reason: {message}");
}

#[test]
fn invalid_utf8_is_refused_with_an_err_frame() {
    let response = raw_response(b"stats \xff\xfe s1\n").expect("a frame must come back");
    let message = response.expect_err("non-UTF-8 input is an error");
    assert!(message.contains("UTF-8"), "unexpected reason: {message}");
}

#[test]
fn blank_lines_crlf_and_pipelining_are_tolerated() {
    let stream = TcpStream::connect(fuzz_addr()).expect("connect");
    (&stream)
        .write_all(b"\n\nworkloads\r\nworkloads\nstat\n")
        .expect("send");
    let mut reader = LineReader::new(&stream);
    let first = read_response(&mut reader, &mut || true)
        .expect("frame")
        .expect("workloads succeeds");
    let second = read_response(&mut reader, &mut || true)
        .expect("frame")
        .expect("workloads succeeds");
    assert_eq!(first, second, "one connection, identical answers");
    read_response(&mut reader, &mut || true)
        .expect("frame")
        .expect("stat succeeds");
}

#[test]
fn unknown_verbs_and_bad_arguments_are_structured_errors() {
    for line in [
        "frobnicate\n",
        "stats\n",
        "stats no-such-circuit-anywhere\n",
        "estimate s1 --weights 0.5\n",
        "eco s1 --set garbage\n",
        "simulate s1\n",
        "#7\n",
    ] {
        let response = raw_response(line.as_bytes()).expect("a frame must come back");
        assert!(
            response.is_err(),
            "{line:?} must be an err frame: {response:?}"
        );
    }
}

#[test]
fn concurrent_interleaved_sessions_match_serial_execution_bit_for_bit() {
    let registry = Arc::new(Registry::new());
    let handle = spawn(Arc::clone(&registry), "127.0.0.1:0", None).expect("server spawns");
    let addr = handle.addr().to_string();

    // The serial reference: the same verbs, the same registry, no
    // server in the path.  `uid`-bearing outputs (stats, analyze
    // --json) only compare equal because server and reference share one
    // registry — uids are process-local.
    let requests: Vec<Vec<String>> = vec![
        strs(&["stats", "s1"]),
        strs(&["estimate", "s1", "--top", "3"]),
        strs(&["analyze", "s1", "--json"]),
        strs(&["estimate", "s1", "--confidence", "0.9"]),
        strs(&["workloads"]),
        strs(&["stats", "c880ish"]),
    ];
    let ctx = ExecContext::new(Arc::clone(&registry));
    let serial: Vec<String> = requests
        .iter()
        .map(|argv| execute(&ctx, argv).expect("serial reference"))
        .collect();

    let workers: Vec<_> = (0..4)
        .map(|rotation: usize| {
            let addr = addr.clone();
            let requests = requests.clone();
            let serial = serial.clone();
            thread::spawn(move || {
                // One persistent connection per session; each session
                // walks the verbs in a different order so the server
                // interleaves distinct verbs at any instant.
                let stream = TcpStream::connect(&addr).expect("connect");
                let mut reader = LineReader::new(&stream);
                for round in 0..3 {
                    for k in 0..requests.len() {
                        let i = (k + rotation) % requests.len();
                        let mut line = requests[i].join(" ");
                        line.push('\n');
                        (&stream).write_all(line.as_bytes()).expect("send");
                        let served = read_response(&mut reader, &mut || true)
                            .expect("frame")
                            .expect("verb succeeds");
                        assert_eq!(
                            served, serial[i],
                            "session {rotation} round {round} diverged on {:?}",
                            requests[i]
                        );
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("session thread");
    }
    handle.trigger_shutdown();
    handle.wait();
}
