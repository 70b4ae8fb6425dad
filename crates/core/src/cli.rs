//! Standard output for the command-line tools.
//!
//! `println!` panics when standard output is a pipe whose reader has gone
//! (`autocheck … | head -1`): Rust ignores `SIGPIPE`, so the write fails
//! with `BrokenPipe` instead of ending the process the way it ends a C
//! tool. [`outln!`](crate::outln) and [`out!`](crate::out) write through
//! [`write_stdout`], which ends the run quietly with status 0 when the
//! reader has gone, and with a one-line diagnostic and status 1 on any
//! other write error.

use std::io::{self, Write};

/// Write `args` to standard output; see the [module docs](self) for what
/// a failed write does.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to standard output: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}
