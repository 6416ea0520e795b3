//! The `bench` command line.

use crate::check::{check_repeat, parse_output};
use crate::run::{run, Options};
use crate::workloads::{Scale, Workload};

const USAGE: &str =
    "usage: bench --workload <table1-50|scale-2000|journal-write-50|journal-read-50>
             [--seed N] [--seconds S] [--trace 0|1] [--spans OUT.json]
       bench --check-repeat A.out B.out";

/// What the arguments asked for.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        opts: Options,
        spans: Option<String>,
    },
    CheckRepeat(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--check-repeat" => {
                return Ok(Command::CheckRepeat(value()?.clone(), value()?.clone()))
            }
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let text = value()?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed expects a non-negative integer, got {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!(
                        "--seconds expects a non-negative number, got {text:?}"
                    ))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                };
            }
            "--spans" => spans = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if spans.is_some() && !trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(Command::Run {
        opts: Options {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
        },
        spans,
    })
}

/// Runs the command line; returns the process exit code. A usage error
/// is code 2 with a message on standard error, never a panic.
pub fn main(args: &[String]) -> i32 {
    let command = match parse(args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return 2;
        }
    };
    match command {
        Command::Run { opts, spans } => {
            let outcome = run(&opts);
            print!("{}", outcome.report);
            if let (Some(path), Some(json)) = (spans, &outcome.spans) {
                if let Err(err) = std::fs::write(&path, json) {
                    eprintln!("cannot write spans to {path}: {err}");
                    return 2;
                }
                println!("spans -> {path}");
            }
            println!("{}", outcome.result_line());
            0
        }
        Command::CheckRepeat(a, b) => {
            let load = |path: &str| {
                std::fs::read_to_string(path)
                    .map_err(|err| format!("cannot read {path}: {err}"))
                    .and_then(|text| parse_output(&text).map_err(|err| format!("{path}: {err}")))
            };
            match (load(&a), load(&b)) {
                (Ok(a), Ok(b)) => {
                    let (table, ok) = check_repeat(&a, &b);
                    print!("{table}");
                    println!("{}", if ok { "REPEATS" } else { "DOES NOT REPEAT" });
                    i32::from(!ok)
                }
                (Err(message), _) | (_, Err(message)) => {
                    eprintln!("{message}");
                    2
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let parsed = parse(&args(&[
            "--workload",
            "scale-2000",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]));
        let Ok(Command::Run { opts, spans }) = parsed else {
            panic!("{parsed:?}");
        };
        assert_eq!(opts.workload, Workload::Scale2000);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 20.0, true));
        assert_eq!(spans, None);
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            &["--workload", "table1"][..],
            &["--workload", "table1-50", "--seed", "-3"],
            &["--workload", "table1-50", "--seed", "4x"],
            &["--workload", "table1-50", "--seconds", "nan"],
            &["--workload", "table1-50", "--trace", "2"],
            &["--workload", "table1-50", "--spans", "x.json"],
            &["--workload"],
            &["--seed", "1"],
            &["--frobnicate"],
            &["--check-repeat", "only-one"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
