//! Positional arguments of the examples. An absent argument takes its
//! default; one that does not parse ends the process with status 1 and
//! `error: <argument> <value>: ...` on stderr, as the bench binaries'
//! flags do, rather than running with a value nobody asked for.

// Each example that includes this module uses a different part of it.
#![allow(dead_code)]

use std::any::type_name;
use std::process::exit;

/// The process arguments after the program name.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Argument `i`, named `name`, as an integer of type `T` (decimal or
/// 0x-hex; one that does not fit `T` is malformed), or `default` when
/// absent.
pub fn integer<T: TryFrom<u64>>(args: &[String], i: usize, name: &str, default: T) -> T {
    let Some(v) = args.get(i) else { return default };
    let n = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    };
    n.and_then(|n| T::try_from(n).ok())
        .unwrap_or_else(|| fail(name, v, &format!("not a {} integer", type_name::<T>())))
}

/// Argument `i`, named `name`, as one of `words`, or `default` when
/// absent.
pub fn word<'a>(
    args: &'a [String],
    i: usize,
    name: &str,
    words: &[&str],
    default: &'a str,
) -> &'a str {
    match args.get(i) {
        None => default,
        Some(v) if words.contains(&v.as_str()) => v,
        Some(v) => fail(name, v, &format!("expected one of {}", words.join(", "))),
    }
}

fn fail(name: &str, value: &str, why: &str) -> ! {
    eprintln!("error: {name} {value}: {why}");
    exit(1)
}
