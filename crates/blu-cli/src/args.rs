//! Tiny flag parser shared by the subcommands (keeps the dependency
//! set to the workspace crates).

use std::collections::HashMap;

/// Parsed `--key value` flags plus positional arguments.
pub struct Flags {
    positional: Vec<String>,
    named: HashMap<String, String>,
    bools: Vec<String>,
}

impl Flags {
    /// Parse against the command's flags: each of `value_flags` takes
    /// one value, each of `bool_flags` none. Any other `--name` is an
    /// error, so a misspelled flag fails the command instead of
    /// leaving its option silently at the default.
    pub fn parse(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut named = HashMap::new();
        let mut bools = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    bools.push(name.to_string());
                } else if value_flags.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    named.insert(name.to_string(), v.clone());
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags {
            positional,
            named,
            bools,
        })
    }

    /// Positional argument by index.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(|s| s.as_str())
    }

    /// A named flag's raw value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.named.get(name).map(|s| s.as_str())
    }

    /// A parsed named flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }

    /// Whether a boolean flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_mixed_args() {
        let f = Flags::parse(
            &sv(&["trace.json", "--ues", "8", "--quick", "--seed", "7"]),
            &["ues", "seed", "missing"],
            &["quick", "verbose"],
        )
        .unwrap();
        assert_eq!(f.positional(0), Some("trace.json"));
        assert_eq!(f.get_or("ues", 0usize).unwrap(), 8);
        assert_eq!(f.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(f.get_or("missing", 42i32).unwrap(), 42);
        assert!(f.has("quick"));
        assert!(!f.has("verbose"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Flags::parse(&sv(&["--ues"]), &["ues"], &[]).is_err());
    }

    #[test]
    fn bad_parse_is_an_error() {
        let f = Flags::parse(&sv(&["--ues", "eight"]), &["ues"], &[]).unwrap();
        assert!(f.get_or("ues", 0usize).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error_naming_it() {
        let args = sv(&["add", "--seed", "1", "--stream-window", "2000"]);
        let err = Flags::parse(&args, &["seed", "window"], &["help"])
            .err()
            .expect("a flag outside the command's lists must be rejected");
        assert_eq!(err, "unknown flag --stream-window");
        // Nor may an unknown flag swallow the next argument as its value.
        let err = Flags::parse(&sv(&["--verbose"]), &["seed"], &["help"])
            .err()
            .expect("unknown boolean-looking flag");
        assert_eq!(err, "unknown flag --verbose");
    }
}
