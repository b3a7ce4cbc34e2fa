//! The flag tables' parser: the only code in `mogpu` that reads raw
//! arguments. Each subcommand declares its flags once, in a [`Command`]
//! table; [`Command::parse`] checks a command line against it and
//! [`help`] renders the USAGE text from it, so what a command accepts,
//! how it validates it and how it documents it cannot drift apart.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// The values a valued flag accepts.
#[derive(Debug, Clone, Copy)]
pub enum Range {
    /// Any text: a path, an address, a level or preset name.
    Text,
    /// A whole number in `min..=max`.
    Int(u64, u64),
    /// A finite real number in `min..=max`; `open` excludes `min`.
    Real { min: f64, max: f64, open: bool },
}

/// Whole numbers from `min` up.
pub const fn at_least(min: u64) -> Range {
    Range::Int(min, u64::MAX)
}

/// Finite reals from 0 up.
pub const NON_NEGATIVE: Range = Range::Real {
    min: 0.0,
    max: f64::INFINITY,
    open: false,
};

impl Range {
    fn check(self, flag: &str, value: &str) -> Result<(), String> {
        let bad = || format!("bad {flag} {value:?}");
        let inside = match self {
            Range::Text => true,
            Range::Int(min, max) => (min..=max).contains(&value.parse::<u64>().map_err(|_| bad())?),
            Range::Real { min, max, open } => {
                let v: f64 = value.parse().map_err(|_| bad())?;
                v.is_finite() && (v > min || (!open && v == min)) && v <= max
            }
        };
        if inside {
            Ok(())
        } else {
            Err(format!("{flag} must be {self}, got {value:?}"))
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Range::Text => Ok(()),
            Range::Int(min, u64::MAX) => write!(f, ">= {min}"),
            Range::Int(min, max) => write!(f, "in {min}..={max}"),
            Range::Real {
                min, open: true, ..
            } => write!(f, "> {min}"),
            Range::Real { min, max, .. } if max == f64::INFINITY => write!(f, ">= {min}"),
            Range::Real { min, max, .. } => write!(f, "in {min}..={max}"),
        }
    }
}

/// One row of a flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as help shows it: `--json`, `--frames N`, or with an
    /// alias `--input|-i IN.y4m`. A flag with a value placeholder takes
    /// a value; one without is a bare switch.
    spec: &'static str,
    range: Range,
    /// The value the command sees when the flag is absent.
    default: Option<&'static str>,
    help: &'static str,
}

/// A flag taking a value in `range`.
pub const fn flag(spec: &'static str, range: Range, help: &'static str) -> Flag {
    Flag {
        spec,
        range,
        default: None,
        help,
    }
}

/// A bare switch; its spec has no value placeholder, so its range is
/// never consulted.
pub const fn switch(spec: &'static str, help: &'static str) -> Flag {
    flag(spec, Range::Text, help)
}

impl Flag {
    pub const fn default(self, value: &'static str) -> Flag {
        Flag {
            default: Some(value),
            ..self
        }
    }

    fn name(&self) -> &'static str {
        self.spec.split([' ', '|']).next().unwrap_or(self.spec)
    }

    fn spelled(&self, arg: &str) -> bool {
        let head = self.spec.split(' ').next().unwrap_or(self.spec);
        head.split('|').any(|s| s == arg)
    }
}

/// One subcommand's table: its name, operands, help prose and flags,
/// the flags in groups so that commands can share a group, and the
/// function that runs it on a parsed command line.
pub struct Command {
    pub name: &'static str,
    /// Positional operands, all required (`diff A.json B.json`).
    pub operands: &'static [&'static str],
    /// The one-line summary in the COMMANDS list.
    pub summary: &'static str,
    pub about: &'static str,
    pub flags: &'static [&'static [Flag]],
    pub run: fn(&Args) -> Result<(), Box<dyn std::error::Error>>,
}

impl Command {
    fn all(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, arg: &str) -> Option<&'static Flag> {
        self.all().find(|f| f.spelled(arg))
    }

    /// Checks `args` (the words after the command name) against the
    /// table: every flag must be declared and given once, a valued flag
    /// needs a value that is not itself one of the command's flags, and
    /// numbers must parse and lie in their range.
    pub fn parse<'a>(&'static self, args: &'a [String]) -> Result<Args<'a>, String> {
        let mut given: Vec<(&'static str, &'a str)> = Vec::new();
        let mut operands = Vec::new();
        let mut words = args.iter().map(String::as_str);
        while let Some(arg) = words.next() {
            let Some(flag) = self.flag(arg) else {
                let name = self.name;
                if arg.starts_with('-') {
                    return Err(format!("unknown {name} option {arg:?}; try `mogpu help`"));
                }
                if operands.len() == self.operands.len() {
                    return Err(format!(
                        "unexpected {name} argument {arg:?}; try `mogpu help`"
                    ));
                }
                operands.push(arg);
                continue;
            };
            if given.iter().any(|&(name, _)| name == flag.name()) {
                return Err(format!("{} given twice", flag.name()));
            }
            let mut value = "";
            if flag.spec.contains(' ') {
                value = (words.next().filter(|v| self.flag(v).is_none()))
                    .ok_or_else(|| format!("{arg} needs a value"))?;
                flag.range.check(flag.name(), value)?;
            }
            given.push((flag.name(), value));
        }
        if operands.len() < self.operands.len() {
            let needed = self.operands.join(" ");
            return Err(format!("{} needs {needed}; try `mogpu help`", self.name));
        }
        Ok(Args {
            command: self,
            given,
            operands,
        })
    }
}

#[cfg(test)]
impl Command {
    /// Checks the table itself: no flag is declared twice, and each
    /// default parses back through the table as if given.
    pub fn check_table(&'static self) -> Result<(), String> {
        let mut line: Vec<String> = self.operands.iter().map(|o| o.to_string()).collect();
        let flags: Vec<&Flag> = self.all().collect();
        for (i, f) in flags.iter().enumerate() {
            if flags[..i].iter().any(|g| g.name() == f.name()) {
                return Err(format!("{} declared twice", f.name()));
            }
            if let Some(default) = f.default {
                line.extend([f.name().to_string(), default.to_string()]);
            }
        }
        self.parse(&line).map(drop)
    }
}

/// A command line that passed [`Command::parse`]. Reading a flag the
/// command's table does not declare is a bug in the caller and panics.
pub struct Args<'a> {
    command: &'static Command,
    given: Vec<(&'static str, &'a str)>,
    operands: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn lookup(&self, name: &str) -> (&'static Flag, Option<&'a str>) {
        let flag = (self.command.flag(name).filter(|f| f.name() == name))
            .unwrap_or_else(|| panic!("{name} is not in the {} table", self.command.name));
        let given = self.given.iter().find(|&&(n, _)| n == name);
        (flag, given.map(|&(_, v)| v))
    }

    /// Whether the switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.lookup(name).1.is_some()
    }

    /// The value of `name` as given, else its default.
    pub fn text(&self, name: &str) -> Option<&'a str> {
        let (flag, given) = self.lookup(name);
        given.or(flag.default)
    }

    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    /// The number `name` holds, if given or defaulted.
    pub fn number<T: FromStr>(&self, name: &str) -> Option<T> {
        let parsed = |v: &str| {
            v.parse()
                .unwrap_or_else(|_| panic!("parse range-checked {name} {v:?}"))
        };
        self.text(name).map(parsed)
    }

    /// The number `name`, a flag with a default, holds.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        let value = self.number(name);
        value.unwrap_or_else(|| panic!("{name} has no default"))
    }

    pub fn operands(&self) -> &[&'a str] {
        &self.operands
    }
}

/// The `mogpu help` text, generated from the command tables.
pub fn help(banner: &str, commands: &[Command]) -> String {
    let mut out = format!("{banner}\n\nCOMMANDS:\n");
    let mut listed = Vec::new();
    for c in commands {
        let word = c.name.split(' ').next().unwrap_or(c.name);
        if !listed.contains(&word) {
            listed.push(word);
            out += &format!("    {word:<10}{}\n", c.summary);
        }
    }
    out += &format!("    {:<10}Show this help\n\nUSAGE:", "help");
    for c in commands {
        let operands: String = c.operands.iter().map(|o| format!(" {o}")).collect();
        out += &format!("\n    mogpu {}{operands}\n", c.name);
        for line in c.about.lines() {
            out += &format!("        {}\n", line.trim_start());
        }
        for f in c.all() {
            let mut notes = f.range.to_string();
            if let Some(d) = f.default {
                notes += &format!("{}default {d}", if notes.is_empty() { "" } else { ", " });
            }
            if !notes.is_empty() {
                notes = format!(" ({notes})");
            }
            out += &format!("        {:<26}{}{notes}\n", f.spec, f.help);
        }
    }
    out
}
