//! The `tart-lint` CLI.
//!
//! ```text
//! tart-lint [--root PATH] [--deny] [--quiet]
//! ```
//!
//! Exit status discipline:
//!
//! - `0` — audit ran and is clean (or findings were only reported).
//! - `1` — `--deny` and at least one finding survived suppression. The
//!   last line on stderr is a one-line summary count.
//! - `2` — the audit itself failed: bad usage, I/O errors, or an empty
//!   file set (a fence that scanned nothing proves nothing). Never used
//!   for findings.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use tart_lint::{audit_workspace, find_workspace_root};

const USAGE: &str = "usage: tart-lint [--root PATH] [--deny] [--quiet]";

struct Args {
    root: Option<PathBuf>,
    deny: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        deny: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--deny" => args.deny = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = args.root.unwrap_or_else(|| find_workspace_root(&cwd));
    let audit = match audit_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tart-lint: failed to audit {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if audit.files_scanned == 0 {
        // A fence that scanned nothing proves nothing — refuse rather than
        // let a mistyped --root pass --deny vacuously.
        eprintln!(
            "tart-lint: no source files found under {} (wrong --root?)",
            root.display()
        );
        return ExitCode::from(2);
    }
    let errors = audit.findings.len();
    if !args.quiet || errors > 0 {
        print!("{}", audit.render_text());
    }
    if args.deny {
        eprintln!(
            "tart-lint: deny: {errors} error(s) across {} file(s)",
            audit.files_scanned
        );
        if errors > 0 {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
