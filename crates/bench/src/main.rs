//! `bench <artifact>|all [flags]` — see [`bench::driver`].

fn main() -> std::process::ExitCode {
    bench::driver::run_cli()
}
