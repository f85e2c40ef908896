//! Minimal `--flag value` argument parsing.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: one subcommand plus `--key value` options
/// (and bare `--switch` booleans).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// CLI usage errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A required option is absent.
    MissingOption(&'static str),
    /// An option or switch the subcommand does not read — a typo or a
    /// removed flag, which must not silently run with defaults.
    UnknownOption {
        /// The subcommand.
        command: String,
        /// The flag as given, without the leading `--`.
        option: String,
    },
    /// An option value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A snapshot (or data-dir) file carries another build's format
    /// version; restoring it could silently misread committed state.
    SnapshotVersion {
        /// Offending snapshot file or data directory.
        path: String,
        /// Format version recorded in the file.
        found: u32,
        /// The one format version this build reads.
        supported: u32,
    },
    /// Underlying I/O failure.
    Io(String),
    /// A check-style subcommand (e.g. `simtest`) found a failure; the
    /// message carries everything needed to reproduce it.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no subcommand given; try `threesigma help`"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown subcommand `{c}`; try `threesigma help`")
            }
            CliError::MissingOption(o) => write!(f, "missing required option --{o}"),
            CliError::UnknownOption { command, option } => write!(
                f,
                "unknown option --{option} for `{command}`; try `threesigma help`"
            ),
            CliError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} {value}: expected {expected}"),
            CliError::SnapshotVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "snapshot {path}: format version {found}, but this build reads only \
                 version {supported}; refusing to restore"
            ),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I, S>(raw: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        args.options.insert(key.to_owned(), value);
                    }
                    _ => args.switches.push(key.to_owned()),
                }
            } else if args.command.is_empty() {
                args.command = a;
            }
        }
        if args.command.is_empty() {
            return Err(CliError::MissingCommand);
        }
        Ok(args)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required string option.
    pub fn require(&self, key: &'static str) -> Result<&str, CliError> {
        self.get(key).ok_or(CliError::MissingOption(key))
    }

    /// A parsed numeric/typed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                option: key.to_owned(),
                value: v.to_owned(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// True when a bare `--switch` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Every option and switch name given, options first (sorted).
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.options
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_switches() {
        let a = Args::parse(["run", "--env", "google", "--rc", "--hours", "2.5"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("env"), Some("google"));
        assert!(a.switch("rc"));
        assert!(!a.switch("verbose"));
        assert_eq!(a.parse_or("hours", 1.0).unwrap(), 2.5);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(
            Args::parse(Vec::<String>::new()).unwrap_err(),
            CliError::MissingCommand
        );
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(["generate"]).unwrap();
        assert_eq!(a.get_or("env", "google"), "google");
        assert_eq!(a.parse_or("seed", 42u64).unwrap(), 42);
    }

    #[test]
    fn bad_numeric_value_is_reported() {
        let a = Args::parse(["run", "--hours", "soon"]).unwrap();
        let err = a.parse_or("hours", 1.0).unwrap_err();
        assert!(matches!(err, CliError::BadValue { .. }));
    }

    #[test]
    fn required_option_errors_when_missing() {
        let a = Args::parse(["run"]).unwrap();
        assert_eq!(
            a.require("trace").unwrap_err(),
            CliError::MissingOption("trace")
        );
    }

    #[test]
    fn trailing_switch_is_a_switch() {
        let a = Args::parse(["run", "--rc"]).unwrap();
        assert!(a.switch("rc"));
    }
}
