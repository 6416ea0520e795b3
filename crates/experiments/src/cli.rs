//! Command-line parsing shared by the `mp2p` subcommands.
//!
//! Each subcommand declares its flag list once as a [`Spec`];
//! [`Args::parse`] checks an argument vector against it, so an unknown
//! flag, a flag without its value or a stray argument is a one-line
//! error followed by that flag list — never silently ignored. The
//! `parse_*` functions map the CLI token vocabularies (strategy names,
//! level mixes, mobility models, fault presets) onto the core types.

use std::str::FromStr;

use mp2p_net::FaultPlan;
use mp2p_rpcc::{LevelMix, Strategy};
use mp2p_sim::SimDuration;

use crate::sweep::{extended_strategies, paper_strategies, StrategySpec};

/// The flag list of one subcommand.
#[derive(Debug)]
pub struct Spec {
    /// Subcommand name as typed after `mp2p`.
    pub command: &'static str,
    /// Metavar of the one optional positional argument; empty when the
    /// subcommand takes none.
    pub positional: &'static str,
    /// `(flag, metavar)` pairs. An empty metavar declares a bare switch;
    /// a metavar in square brackets declares an optional value, taken
    /// from the next token unless that token is itself a flag.
    pub flags: &'static [(&'static str, &'static str)],
}

impl Spec {
    /// The flag list as a wrapped `usage:` paragraph.
    pub fn usage(&self) -> String {
        let mut words = Vec::new();
        if !self.positional.is_empty() {
            words.push(format!("[{}]", self.positional));
        }
        for (flag, metavar) in self.flags {
            let gap = if metavar.is_empty() { "" } else { " " };
            words.push(format!("[{flag}{gap}{metavar}]"));
        }
        let mut out = String::new();
        let mut line = format!("usage: mp2p {}", self.command);
        for (i, word) in words.iter().enumerate() {
            if i > 0 && line.len() + 1 + word.len() > 78 {
                out.push_str(&line);
                out.push('\n');
                line = "       ".to_owned();
            }
            line.push(' ');
            line.push_str(word);
        }
        out.push_str(&line);
        out
    }

    /// A usage error: the message on one line, then the flag list.
    pub fn error(&self, msg: impl std::fmt::Display) -> String {
        format!("mp2p {}: {msg}\n{}", self.command, self.usage())
    }
}

/// An argument vector checked against a [`Spec`], with typed accessors.
#[derive(Debug, Clone)]
pub struct Args {
    spec: &'static Spec,
    positional: Option<String>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Checks `argv` (subcommand name already stripped) against `spec`.
    /// `--help` / `-h` yield the flag list as the error.
    pub fn parse(spec: &'static Spec, argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            spec,
            positional: None,
            given: Vec::new(),
        };
        let mut tokens = argv.iter().peekable();
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                return Err(spec.usage());
            }
            if !token.starts_with("--") {
                if spec.positional.is_empty() || args.positional.is_some() {
                    return Err(spec.error(format!("unexpected argument {token:?}")));
                }
                args.positional = Some(token.clone());
                continue;
            }
            let Some(&(flag, metavar)) = spec.flags.iter().find(|(f, _)| f == token) else {
                return Err(spec.error(format!("unknown flag {token}")));
            };
            if args.given.iter().any(|(f, _)| *f == flag) {
                return Err(spec.error(format!("{flag} given twice")));
            }
            let value = if metavar.is_empty() {
                None
            } else {
                let value = tokens.next_if(|next| !next.starts_with("--"));
                if value.is_none() && !metavar.starts_with('[') {
                    return Err(spec.error(format!("{flag} needs a value ({metavar})")));
                }
                value.cloned()
            };
            args.given.push((flag, value));
        }
        Ok(args)
    }

    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.spec.flags.iter().any(|(f, _)| *f == name),
            "{name} is not declared by `{}`",
            self.spec.command
        );
        self.given.iter().find(|(f, _)| *f == name).map(|(_, v)| v)
    }

    /// True when the flag was given (with or without a value).
    pub fn flag(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The value given with `--name`, if any.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.lookup(name).and_then(|v| v.as_deref())
    }

    /// The positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// The value given with `--name`, parsed and range-checked: `expects`
    /// words the error (`"--peers expects an integer >= 2, got \"1\""`).
    pub fn get<T: FromStr>(
        &self,
        name: &str,
        expects: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        let Some(text) = self.value_of(name) else {
            return Ok(None);
        };
        match text.parse::<T>() {
            Ok(v) if ok(&v) => Ok(Some(v)),
            _ => Err(format!("{name} expects {expects}, got {text:?}")),
        }
    }
}

/// Range check for [`Args::get`]: finite and not negative.
pub fn non_negative(v: &f64) -> bool {
    v.is_finite() && *v >= 0.0
}

/// CLI token of a strategy (`rpcc`, `push`, `pull`, `push-ap`) — also a
/// file-name stem of matrix snapshots, so it is lowercase and path-safe.
pub fn strategy_token(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Rpcc => "rpcc",
        Strategy::Push => "push",
        Strategy::Pull => "pull",
        Strategy::PushAdaptivePull => "push-ap",
    }
}

/// Parses a strategy token; inverse of [`strategy_token`].
pub fn parse_strategy(token: &str) -> Result<Strategy, String> {
    match token {
        "rpcc" => Ok(Strategy::Rpcc),
        "push" => Ok(Strategy::Push),
        "pull" => Ok(Strategy::Pull),
        "push-ap" => Ok(Strategy::PushAdaptivePull),
        _ => Err(format!(
            "unknown strategy {token:?} (rpcc|push|pull|push-ap)"
        )),
    }
}

/// Parses one entry of a strategy set: a strategy token with an optional
/// level mix (`rpcc:hy`, `push`); without one it takes `default_mix`.
pub fn parse_strategy_entry(entry: &str, default_mix: LevelMix) -> Result<StrategySpec, String> {
    let (token, mix) = match entry.split_once(':') {
        Some((token, mix)) => (token, parse_mix(mix)?),
        None => (entry, default_mix),
    };
    Ok(StrategySpec::of(parse_strategy(token)?, mix))
}

/// Parses the strategy set of `mp2p run --strategy` and of a scenario's
/// `strategies`: a comma list of [`parse_strategy_entry`] entries and the
/// aliases `paper` (the six Fig. 7/8 curves) and `all` (plus Push+AP).
/// Two entries that would share a column label are rejected.
pub fn parse_strategy_set(list: &str, default_mix: LevelMix) -> Result<Vec<StrategySpec>, String> {
    let mut specs: Vec<StrategySpec> = Vec::new();
    for entry in list.split(',').filter(|t| !t.is_empty()) {
        match entry {
            "paper" => specs.extend(paper_strategies()),
            "all" => specs.extend(extended_strategies()),
            _ => specs.push(parse_strategy_entry(entry, default_mix)?),
        }
    }
    if specs.is_empty() {
        return Err("empty strategy list".into());
    }
    if let Some(spec) = first_repeat(&specs, |a, b| a.name == b.name) {
        return Err(format!("strategy {} listed twice", spec.name));
    }
    Ok(specs)
}

/// The first element of `items` that is the `same` as an earlier one:
/// two list entries that would share a cell key, a column or a snapshot
/// file.
pub(crate) fn first_repeat<T>(items: &[T], same: impl Fn(&T, &T) -> bool) -> Option<&T> {
    (items.iter().enumerate())
        .find(|(i, item)| items[..*i].iter().any(|earlier| same(earlier, item)))
        .map(|(_, item)| item)
}

/// Parses a level-mix token (`sc`, `dc`, `wc`, `hy`).
pub fn parse_mix(token: &str) -> Result<LevelMix, String> {
    match token {
        "sc" => Ok(LevelMix::strong_only()),
        "dc" => Ok(LevelMix::delta_only()),
        "wc" => Ok(LevelMix::weak_only()),
        "hy" => Ok(LevelMix::hybrid()),
        other => Err(format!("unknown mix {other:?} (sc|dc|wc|hy)")),
    }
}

/// Splits a `--mobility` token — the model name with optional
/// colon-separated parameters — into the two:
///
/// | token | parameters | when omitted |
/// |---|---|---|
/// | `waypoint[:MIN:MAX:PAUSE]` | speeds m/s, max pause s | `0.5:2.5:30` (Table 1) |
/// | `walk[:MIN:MAX:EPOCH]` | speeds m/s, epoch s | `0.5:2.5:60` |
/// | `manhattan[:BLOCK:SPEED]` | block m, speed m/s | `150:8` |
/// | `stationary` | — | — |
///
/// What a model or a parameter may be is the run-key table's and
/// `WorldConfig::check`'s business, not this function's.
pub fn split_mobility(token: &str) -> (&str, Vec<&str>) {
    let mut parts = token.split(':');
    (parts.next().unwrap_or_default(), parts.collect())
}

/// Parses a fault-preset name into a plan scaled to `sim_time`.
pub fn parse_faults(name: &str, sim_time: SimDuration) -> Result<FaultPlan, String> {
    FaultPlan::preset(name, sim_time).ok_or_else(|| {
        format!(
            "unknown fault plan {name:?} (none|{})",
            FaultPlan::PRESETS.join("|")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: Spec = Spec {
        command: "demo",
        positional: "ID",
        flags: &[
            ("--peers", "N"),
            ("--loss", "P"),
            ("--profile", ""),
            ("--explain", "[QUERY]"),
        ],
    };

    fn parse(list: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Args::parse(&SPEC, &argv)
    }

    #[test]
    fn typed_accessors_parse_and_reject() {
        let a = parse(&["fig7a", "--peers", "50", "--loss", "0.05", "--profile"]).unwrap();
        assert_eq!(a.positional(), Some("fig7a"));
        assert_eq!(
            a.get("--peers", "an integer", |_: &usize| true),
            Ok(Some(50))
        );
        assert_eq!(
            a.get("--loss", "a probability", |p: &f64| (0.0..=1.0).contains(p)),
            Ok(Some(0.05))
        );
        assert!(a.flag("--profile"));
        assert!(!a.flag("--explain"));
        let err = a
            .get("--peers", "an integer >= 99", |n: &usize| *n >= 99)
            .unwrap_err();
        assert_eq!(err, "--peers expects an integer >= 99, got \"50\"");
        let bad = parse(&["--peers", "many"]).unwrap();
        assert!(bad.get("--peers", "an integer", |_: &usize| true).is_err());
        let nan = parse(&["--loss", "nan"]).unwrap();
        assert!(nan
            .get("--loss", "a non-negative number", non_negative)
            .is_err());
    }

    #[test]
    fn malformed_argument_vectors_name_the_problem_and_list_the_flags() {
        for (argv, needle) in [
            (&["--bogus"][..], "unknown flag --bogus"),
            (&["--peers"][..], "--peers needs a value (N)"),
            (&["--peers", "--profile"][..], "--peers needs a value (N)"),
            (&["a", "b"][..], "unexpected argument \"b\""),
            (&["--profile", "--profile"][..], "--profile given twice"),
        ] {
            let err = parse(argv).unwrap_err();
            let (first, usage) = err.split_once('\n').expect("error line, then usage");
            assert_eq!(first, format!("mp2p demo: {needle}"));
            assert!(
                usage.starts_with("usage: mp2p demo [ID] [--peers N]"),
                "{usage}"
            );
        }
        assert_eq!(parse(&["--help"]).unwrap_err(), SPEC.usage());
        assert_eq!(parse(&["-h"]).unwrap_err(), SPEC.usage());
    }

    #[test]
    fn optional_values_bind_only_to_non_flags() {
        let one = parse(&["--explain", "17", "--profile"]).unwrap();
        assert_eq!(one.value_of("--explain"), Some("17"));
        let all = parse(&["--explain", "--profile"]).unwrap();
        assert!(all.flag("--explain") && all.flag("--profile"));
        assert_eq!(all.value_of("--explain"), None);
    }

    #[test]
    fn usage_wraps_and_lists_every_flag() {
        let usage = crate::run::SPEC.usage();
        assert!(usage.lines().all(|l| l.len() <= 78), "{usage}");
        for (flag, _) in crate::run::SPEC.flags {
            assert!(usage.contains(flag), "{flag} missing from usage");
        }
    }

    #[test]
    fn strategy_and_mix_tokens() {
        for strategy in [
            Strategy::Rpcc,
            Strategy::Push,
            Strategy::Pull,
            Strategy::PushAdaptivePull,
        ] {
            assert_eq!(parse_strategy(strategy_token(strategy)), Ok(strategy));
        }
        assert!(parse_strategy("gossip").is_err());
        assert_eq!(parse_mix("hy").unwrap(), LevelMix::hybrid());
        assert!(parse_mix("zz").is_err());
    }

    #[test]
    fn strategy_sets_expand_aliases_and_carry_mixes() {
        let names = |list: &str| -> Vec<&'static str> {
            parse_strategy_set(list, LevelMix::strong_only())
                .unwrap()
                .iter()
                .map(|s| s.name)
                .collect()
        };
        assert_eq!(names("rpcc"), ["RPCC(SC)"]);
        assert_eq!(
            names("rpcc:sc,rpcc:hy,push"),
            ["RPCC(SC)", "RPCC(HY)", "Push"]
        );
        assert_eq!(names("paper").len(), 6);
        assert_eq!(names("all").last(), Some(&"Push+AP"));
        let hy = parse_strategy_set("rpcc,pull", LevelMix::hybrid()).unwrap();
        assert_eq!(hy[0].name, "RPCC(HY)");
        assert_eq!(hy[1].mix, LevelMix::hybrid());
        for bad in ["", "rpcc,rpcc", "paper,pull", "rpcc:zz", "gossip"] {
            assert!(
                parse_strategy_set(bad, LevelMix::strong_only()).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn mobility_tokens_split_into_model_and_parameters() {
        assert_eq!(split_mobility("stationary"), ("stationary", vec![]));
        assert_eq!(
            split_mobility("manhattan:100:12.5"),
            ("manhattan", vec!["100", "12.5"])
        );
        assert_eq!(split_mobility("walk::x"), ("walk", vec!["", "x"]));
        assert_eq!(split_mobility(""), ("", vec![]));
    }

    #[test]
    fn fault_preset_tokens() {
        let sim = SimDuration::from_mins(10);
        assert_eq!(parse_faults("none", sim).unwrap().label, "none");
        for preset in FaultPlan::PRESETS {
            assert_eq!(parse_faults(preset, sim).unwrap().label, preset);
        }
        assert!(parse_faults("meteor", sim).is_err());
    }
}
