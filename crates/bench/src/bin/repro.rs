//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [fig4|...|fig10|table1|table2|ablation|all] [--fast] [--out DIR]
//! ```
//!
//! The default target is `all` at paper-length windows; `--fast` shortens
//! every run. Figures are printed as ASCII charts and written as CSV under
//! `--out` (default `results/`).

use hcc_bench::{figures, plot, tables, Effort, Figure};
use std::path::PathBuf;
use std::time::Instant;

const TARGETS: [&str; 11] = [
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2", "ablation", "all",
];

/// The target (default `all`), the effort (`--fast` or the paper-length
/// default) and the output directory. Anything else is an error naming
/// the argument.
fn parse_args(args: &[String]) -> Result<(&str, Effort, PathBuf), String> {
    let mut what = None;
    let mut effort = Effort::Full;
    let mut out_dir = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => effort = Effort::Fast,
            "--out" => out_dir = it.next().ok_or("--out needs a directory")?.into(),
            t if TARGETS.contains(&t) => {
                if let Some(first) = what.replace(t) {
                    return Err(format!("two targets given: {first:?} and {t:?}"));
                }
            }
            _ => {
                return Err(format!(
                    "unknown argument {a:?} (usage: repro [{}] [--fast] [--out DIR])",
                    TARGETS.join("|")
                ))
            }
        }
    }
    Ok((what.unwrap_or("all"), effort, out_dir))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, effort, out_dir) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });

    let run_figure = |f: fn(Effort) -> Figure| {
        let t0 = Instant::now();
        let fig = f(effort);
        println!("{}", plot::ascii_chart(&fig));
        for s in &fig.series {
            println!("    {}", plot::series_summary(s));
        }
        match plot::write_csv(&fig, &out_dir) {
            Ok(p) => println!(
                "    csv: {}   ({:.1}s)\n",
                p.display(),
                t0.elapsed().as_secs_f64()
            ),
            Err(e) => eprintln!("    csv write failed: {e}"),
        }
    };

    let all = what == "all";
    if all || what == "fig4" {
        run_figure(figures::fig4);
    }
    if all || what == "fig5" {
        run_figure(figures::fig5);
    }
    if all || what == "fig6" {
        run_figure(figures::fig6);
    }
    if all || what == "fig7" {
        run_figure(figures::fig7);
    }
    if all || what == "fig8" {
        run_figure(figures::fig8);
    }
    if all || what == "fig9" {
        run_figure(figures::fig9);
    }
    if all || what == "fig10" {
        run_figure(figures::fig10);
    }
    if all || what == "table1" {
        let t0 = Instant::now();
        let cells = tables::table1(effort);
        println!("Table 1 — best scheme per workload regime (measured)\n");
        println!("{}", tables::render_table1(&cells));
        println!("    ({:.1}s)\n", t0.elapsed().as_secs_f64());
        let _ = std::fs::create_dir_all(&out_dir);
        if let Ok(json) = serde_json::to_string_pretty(&cells) {
            let _ = std::fs::write(out_dir.join("table1.json"), json);
        }
    }
    if all || what == "ablation" {
        let t0 = Instant::now();
        println!("Ablation — speculation depth limit (§5.3) and adaptive advisor (§5.7)\n");
        println!("{}", tables::ablation(effort));
        println!("    ({:.1}s)\n", t0.elapsed().as_secs_f64());
    }
    if all || what == "table2" {
        let t = tables::table2(effort);
        println!("Table 2 — analytical model variables (measured on this system)\n");
        println!("{}", tables::render_table2(&t));
        let _ = std::fs::create_dir_all(&out_dir);
        if let Ok(json) = serde_json::to_string_pretty(&t) {
            let _ = std::fs::write(out_dir.join("table2.json"), json);
        }
    }
}
