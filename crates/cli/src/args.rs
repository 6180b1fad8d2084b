//! Minimal dependency-free argument parsing.

use std::collections::BTreeMap;

/// Parsed command line: positional arguments plus `--flag [value]` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--name value` options (`None` for bare flags).
    pub options: BTreeMap<String, Option<String>>,
}

/// Parses `args` against a driver's options: the `valued` names take a
/// value, the `flags` are bare switches, and any other `--…` is a usage
/// error. A single-dash spelling (`-o value`) is accepted as an alias for
/// a *declared* valued option; any other `-…` token stays positional.
pub fn parse(args: &[String], valued: &[&str], flags: &[&str]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let name = arg
            .strip_prefix("--")
            .or_else(|| arg.strip_prefix('-').filter(|n| valued.contains(n)));
        if let Some(name) = name {
            if valued.contains(&name) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                out.options.insert(name.to_owned(), Some(value.clone()));
            } else if flags.contains(&name) {
                out.options.insert(name.to_owned(), None);
            } else {
                return Err(format!("unknown option --{name}"));
            }
        } else {
            out.positional.push(arg.clone());
        }
    }
    Ok(out)
}

impl Args {
    /// Whether a flag/option was given.
    pub fn has(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// The value of a valued option, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.as_deref())
    }

    /// Parses an option as `T`, with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("invalid value `{text}` for --{name}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn positional_and_options_mix() {
        let args = parse(
            &split("in.s -x --density 0.5 --stats out.fpx"),
            &["density"],
            &["stats"],
        )
        .unwrap();
        assert_eq!(args.positional, vec!["in.s", "-x", "out.fpx"]);
        assert_eq!(args.value("density"), Some("0.5"));
        assert!(args.has("stats"));
        assert!(!args.has("density-missing"));
    }

    #[test]
    fn short_alias_for_valued_options() {
        // `fpasm in.s -o out.fpx` — the usage strings advertise the short
        // spelling, so a declared valued option must accept it.
        let args = parse(&split("in.s -o out.fpx"), &["o"], &[]).unwrap();
        assert_eq!(args.positional, vec!["in.s"]);
        assert_eq!(args.value("o"), Some("out.fpx"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&split("--density"), &["density"], &[]).is_err());
    }

    #[test]
    fn undeclared_option_is_error() {
        let err = parse(&split("in.s --stat"), &["density"], &["stats"]).unwrap_err();
        assert_eq!(err, "unknown option --stat");
        assert!(parse(&split("--density 1 --stats"), &["density"], &[]).is_err());
    }

    #[test]
    fn parse_or_defaults_and_parses() {
        let args = parse(&split("--n 7"), &["n"], &[]).unwrap();
        assert_eq!(args.parse_or("n", 0u32).unwrap(), 7);
        assert_eq!(args.parse_or("m", 3u32).unwrap(), 3);
        let bad = parse(&split("--n x"), &["n"], &[]).unwrap();
        assert!(bad.parse_or("n", 0u32).is_err());
    }
}
