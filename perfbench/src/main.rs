//! The untraced benchmark binary; see `run.py`.

fn main() -> std::process::ExitCode {
    orochi_perfbench::main(false)
}
