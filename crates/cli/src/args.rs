//! Minimal flag parsing — deliberately dependency-free.

use std::collections::HashMap;

/// Parsed `--flag value` pairs plus boolean switches.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `--key value` tokens for the names in `values` and bare
    /// `--switch` tokens for the names in `switches`.
    ///
    /// # Errors
    ///
    /// Returns a message for non-flag positional tokens, for a value flag
    /// with no value, and for any flag the subcommand does not accept — a
    /// typo such as `--shard` must fail, not silently run without it.
    pub fn parse(argv: &[String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let accepted = values;
        let mut values = HashMap::new();
        let mut found = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{tok}`"));
            };
            if switches.contains(&name) {
                found.push(name.to_string());
            } else if accepted.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                values.insert(name.to_string(), value.clone());
            } else {
                return Err(format!("unknown flag `--{name}`"));
            }
        }
        Ok(Self {
            values,
            switches: found,
        })
    }

    /// String value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Required string value.
    ///
    /// # Errors
    ///
    /// Returns a message when the flag is absent.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// Numeric value with default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn num(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    /// Numeric value with default that must lie in `(0, 1]` — the range
    /// of the accuracy and threshold parameters ε and θ.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse or
    /// falls outside `(0, 1]` (NaN included).
    pub fn fraction(&self, name: &str, default: f64) -> Result<f64, String> {
        let v = self.num(name, default)?;
        if v > 0.0 && v <= 1.0 {
            Ok(v)
        } else {
            Err(format!("--{name} expects a value in (0, 1], got {v}"))
        }
    }

    /// Integral value with default that must lie in `[0, max]` — the
    /// packet, row, window, pane and shard counts.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse, is
    /// not integral, or falls outside `[0, max]` (NaN and infinities
    /// included).
    pub fn count(&self, name: &str, default: u64, max: u64) -> Result<u64, String> {
        let v = self.num(name, default as f64)?;
        if v >= 0.0 && v <= max as f64 && v.fract() == 0.0 {
            Ok(v as u64)
        } else {
            let raw = self.get(name).unwrap_or_default();
            Err(format!(
                "--{name} expects an integer in 0..={max}, got {raw}"
            ))
        }
    }

    /// Whether a boolean switch was present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = Flags::parse(
            &v(&["--packets", "100", "--volume", "--theta", "0.05"]),
            &["packets", "theta"],
            &["volume"],
        )
        .expect("parse");
        assert_eq!(f.get("packets"), Some("100"));
        assert_eq!(f.num("theta", 0.0).unwrap(), 0.05);
        assert!(f.switch("volume"));
        assert!(!f.switch("quick"));
    }

    #[test]
    fn rejects_positional() {
        assert!(Flags::parse(&v(&["oops"]), &[], &[]).is_err());
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Flags::parse(&v(&["--packets"]), &["packets"], &[]).is_err());
    }

    #[test]
    fn require_and_defaults() {
        let f = Flags::parse(&v(&["--out", "x.trc"]), &["out"], &[]).expect("parse");
        assert_eq!(f.require("out").unwrap(), "x.trc");
        assert!(f.require("missing").is_err());
        assert_eq!(f.num("packets", 42.0).unwrap(), 42.0);
    }

    #[test]
    fn bad_number_is_error() {
        let f = Flags::parse(&v(&["--theta", "abc"]), &["theta"], &[]).expect("parse");
        assert!(f.num("theta", 0.0).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = Flags::parse(&v(&["--shard", "4"]), &["shards"], &["batch"]).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
        // A switch name is not a value flag, nor the other way round.
        assert!(Flags::parse(&v(&["--batch"]), &["batch"], &[]).is_err());
        assert!(Flags::parse(&v(&["--shards"]), &[], &["batch"]).is_err());
    }

    #[test]
    fn fraction_bounds() {
        let f = |value: &str| {
            Flags::parse(&v(&["--epsilon", value]), &["epsilon"], &[])
                .expect("parse")
                .fraction("epsilon", 0.5)
        };
        assert_eq!(f("1"), Ok(1.0));
        assert_eq!(f("0.001"), Ok(0.001));
        for bad in ["0", "-0.1", "1.5", "nan", "inf"] {
            let err = f(bad).unwrap_err();
            assert!(err.contains("--epsilon"), "{bad}: {err}");
        }
        let absent = Flags::parse(&[], &["epsilon"], &[]).expect("parse");
        assert_eq!(absent.fraction("epsilon", 0.5), Ok(0.5));
    }

    #[test]
    fn count_bounds() {
        let f = |value: &str| {
            Flags::parse(&v(&["--packets", value]), &["packets"], &[])
                .expect("parse")
                .count("packets", 7, 1_000)
        };
        assert_eq!(f("0"), Ok(0));
        assert_eq!(f("1e3"), Ok(1_000));
        assert_eq!(f("250"), Ok(250));
        for bad in ["-5", "nan", "2.5", "1e30", "1001", "inf", "-inf", "abc"] {
            let err = f(bad).unwrap_err();
            assert!(err.contains("--packets"), "{bad}: {err}");
        }
        let absent = Flags::parse(&[], &["packets"], &[]).expect("parse");
        assert_eq!(absent.count("packets", 7, 1_000), Ok(7));
    }
}
