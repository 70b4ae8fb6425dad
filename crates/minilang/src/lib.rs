//! MiniLang: a small C-like frontend for the autocheck mini-IR.
//!
//! The paper's 14 benchmarks are C/C++ programs compiled by Clang 3.4. We
//! cannot ship those sources or that toolchain, so the benchmarks are
//! rewritten in MiniLang — a deliberately C-shaped language that preserves
//! what AutoCheck actually analyzes: *which named variables are read and
//! written where*, across nested loops and function calls. The lowering
//! mimics `clang -O0`: every variable becomes an `alloca` (hoisted to the
//! function entry, with no source line — exactly the `-1` line numbers
//! LLVM-Tracer prints for allocas), every access goes through
//! `Load`/`Store`, arrays decay to pointers at call sites via a
//! `GetElementPtr`, and logical operators lower to `zext`/`and`/`or` plus a
//! final compare, as Clang does.
//!
//! # Language summary
//!
//! ```c
//! global int sums[10];          // module globals (zero-initialized)
//! global float shift = 0.5;    // or scalar-initialized
//!
//! void foo(int* p, int* q, int n) {
//!     for (int i = 0; i < n; i = i + 1) {
//!         q[i] = p[i] * 2;
//!     }
//! }
//!
//! int main() {
//!     int a[10]; int b[10];
//!     int sum = 0;
//!     for (int it = 0; it < 10; it = it + 1) {
//!         foo(a, b, 10);
//!         sum = a[it] + b[it];
//!     }
//!     print(sum);
//!     return 0;
//! }
//! ```
//!
//! Types are `int` (i64), `float` (f64), and fixed-size 1-D arrays of
//! either (multi-dimensional data is linearised by hand, as the benchmarks
//! do). There is no implicit `int`/`float` conversion; use `float(x)` and
//! `int(x)`. Booleans exist only as expression results (`bool` assigned to
//! `int` zero-extends). `&&`/`||` do not short-circuit (they lower to
//! bitwise combination; no MiniLang program relies on guarding semantics).
//! Scalar parameters are read-only; array parameters are pointers.
//! Builtins: `print`, `sqrt`, `pow`, `fabs`, `abs`, `exp`, `log`, `cos`,
//! `sin`, `floor`, `fmax`, `fmin`.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod sema;
pub mod token;

pub use error::CompileError;

/// Compile MiniLang source into a verified IR module.
///
/// This is the crate's one-call entry point: lex → parse → semantic
/// analysis → lowering → IR verification.
pub fn compile(source: &str) -> Result<autocheck_ir::Module, Vec<CompileError>> {
    let tokens = lexer::lex(source).map_err(|e| vec![e])?;
    let program = parser::parse(&tokens).map_err(|e| vec![e])?;
    sema::check(&program)?;
    let module = lower::lower(&program);
    if let Err(errs) = autocheck_ir::verify_module(&module) {
        // A verifier failure after successful sema is a compiler bug; report
        // it as an internal error rather than panicking so fuzzing can see it.
        return Err(errs
            .into_iter()
            .map(|e| CompileError::internal(format!("verifier: {e}")))
            .collect());
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_hello_sum() {
        let src = r#"
int main() {
    int sum = 0;
    for (int i = 0; i < 5; i = i + 1) {
        sum = sum + i;
    }
    print(sum);
    return 0;
}
"#;
        let m = compile(src).expect("compiles");
        assert_eq!(m.functions.len(), 1);
        assert!(m.function_by_name("main").is_some());
    }

    #[test]
    fn reports_type_errors_with_location() {
        let src = "int main() { float x = 1; return 0; }\n";
        let errs = compile(src).unwrap_err();
        assert!(errs[0].to_string().contains("line 1"));
    }
}
