//! Command-line front end: `cargo run -p memlint -- [--deny] [--csv] [ROOT]`.
//!
//! Prints every *standing* (non-allowlisted) diagnostic as `file:line:
//! rule: message` (the line the GitHub problem matcher reads), then a
//! per-rule summary on stderr. `--deny` turns any standing diagnostic into
//! exit code 2 — the CI gate. `--csv` emits one row per diagnostic
//! (allowlisted ones included) instead.

use std::path::PathBuf;
use std::process::ExitCode;

use memlint::Rule;

fn main() -> ExitCode {
    let mut deny = false;
    let mut csv = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" => deny = true,
            "--csv" => csv = true,
            "--help" | "-h" => {
                eprintln!("usage: memlint [--deny] [--csv] [ROOT]");
                eprintln!("rules: {}", Rule::ALL.map(|r| r.name()).join(", "));
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = Some(PathBuf::from(other)),
            other => {
                eprintln!("memlint: unknown flag `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    let report = match memlint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("memlint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if csv {
        println!("file,line,rule,allowed,detail");
        for d in &report.diagnostics {
            let (allowed, detail) = match &d.allowed {
                Some(reason) => ("yes", reason.as_str()),
                None => ("no", d.message.as_str()),
            };
            println!(
                "{},{},{},{},{}",
                d.file.display(),
                d.line,
                d.rule,
                allowed,
                csv_quote(detail)
            );
        }
    } else {
        for d in report.denied() {
            println!("{d}");
        }
    }

    let standing = report.denied().count();
    let per_rule: Vec<String> = Rule::ALL
        .into_iter()
        .map(|r| {
            let (s, a) = report.counts(r);
            format!("{r}={s}+{a}")
        })
        .collect();
    eprintln!(
        "memlint: {} files, {} diagnostic(s) standing, {} allowlisted [{}]",
        report.files,
        standing,
        report.allowlisted().count(),
        per_rule.join(" ")
    );

    if deny && standing > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Minimal CSV field quoting (commas/quotes in reasons).
fn csv_quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::csv_quote;

    #[test]
    fn quoting() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
