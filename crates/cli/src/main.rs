//! `wrt` — command-line front end for the weighted-random-testing
//! workspace.  `wrt help` prints every verb and flag
//! ([`wrt_serve::exec::USAGE`]).
//!
//! Request verbs run through [`wrt_serve::exec::execute`], the same
//! dispatcher a `wrt serve` session uses, so batch output and served
//! output are the same bytes.  Only the process-level verbs (`serve`,
//! `client`, `--remote`) are handled here.
//!
//! Long-running commands respond to Ctrl-C by cancelling cooperatively:
//! the run stops at its next budget check-in with a structured partial
//! result (and, for optimize/atpg, a resume checkpoint) instead of the
//! process being killed mid-write, also on a second Ctrl-C (SIGTERM still kills it).

use std::process::ExitCode;

use wrt_serve::exec;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "--remote" => match rest.split_first() {
            Some((addr, argv)) => commands::remote(addr, argv),
            None => Err(format!("--remote requires <addr> <command ...>\n{}", commands::USAGE)),
        },
        "serve" => commands::serve(rest),
        "client" => commands::client(rest),
        _ => exec::execute(commands::context(), &args).map(|text| print!("{text}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
