//! Thin wrapper over [`flexprot_cli::fprun`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fprun(&args) {
        Ok(summary) => {
            flexprot_cli::print_report("fprun", &summary.output);
            eprintln!("{}", summary.report);
            std::process::exit(summary.exit_code);
        }
        Err(err) => {
            eprintln!("fprun: {err}");
            std::process::exit(2);
        }
    }
}
