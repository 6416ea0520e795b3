//! `mp2p` — the one binary: `run | matrix | analyze | paper`.
//!
//! Each subcommand is a library function of [`mp2p::experiments`] that
//! takes the remaining arguments and reports whether its gates passed.
//! Exit status: 0 clean, 1 a gate or invariant tripped, 2 usage or I/O
//! error.

use mp2p::experiments::{analyze, matrix, paper, run};

const USAGE: &str =
    "usage: mp2p <run|matrix|analyze|paper> [flags]   (mp2p <subcommand> --help lists them)";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((sub, rest)) => match sub.as_str() {
            "run" => run::command(rest),
            "matrix" => matrix::command(rest),
            "analyze" => analyze::command(rest),
            "paper" => paper::command(rest),
            "--help" | "-h" => Err(USAGE.to_owned()),
            other => Err(format!("mp2p: unknown subcommand {other:?}\n{USAGE}")),
        },
        None => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
