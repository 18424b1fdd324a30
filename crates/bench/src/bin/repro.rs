//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale quick|default|paper] [fig6|fig7|fig8|fig9|fig10|fig11|table1|table2|table3|all]
//! ```
//!
//! Each subcommand prints the corresponding table/series in the
//! paper's layout. Absolute times depend on this machine; the shapes
//! (who wins, by what factor) are the reproduction target — see
//! `EXPERIMENTS.md` for the side-by-side reading.

use std::time::Instant;
use xdn_bench::report::{ms, render_table, us};
use xdn_bench::{delay, fig6, fig7, fig8, fig9, table1, traffic, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::quick(),
                    Some("default") => Scale::default(),
                    Some("paper") => Scale::paper(),
                    other => {
                        eprintln!("unknown scale {other:?} (quick|default|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale quick|default|paper] \
                     [fig6|fig7|fig8|fig9|fig10|fig11|table1|table2|table3|all]..."
                );
                return;
            }
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = [
            "fig6", "fig7", "fig8", "table1", "table2", "table3", "fig9", "fig10", "fig11",
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    }

    for t in targets {
        let started = Instant::now();
        match t.as_str() {
            "fig6" => run_fig6(&scale),
            "fig7" => run_fig7(&scale),
            "fig8" => run_fig8(&scale),
            "table1" => run_table1(&scale),
            "table2" => run_traffic(3, "Table 2. 7 Broker Network", &scale),
            "table3" => run_traffic(7, "Table 3. 127 Broker Network", &scale),
            "fig9" => run_fig9(&scale),
            "fig10" => run_delay(delay::DelayDtd::Psd, "Figure 10. PSD XML", &scale),
            "fig11" => run_delay(delay::DelayDtd::Nitf, "Figure 11. NITF XML", &scale),
            other => {
                eprintln!("unknown target {other:?}");
                std::process::exit(2);
            }
        }
        eprintln!("[{t} took {:.1}s]\n", started.elapsed().as_secs_f64());
    }
}

fn run_fig6(scale: &Scale) {
    // Workload summary: the realized W/DO/covering parameters.
    let dtd = xdn_workloads::nitf_dtd();
    for (name, queries) in [
        (
            "Set A",
            xdn_workloads::sets::set_a(&dtd, scale.fig6_queries.min(5_000), 1),
        ),
        (
            "Set B",
            xdn_workloads::sets::set_b(&dtd, scale.fig6_queries.min(5_000), 1),
        ),
    ] {
        let st = xdn_workloads::analyze::query_set_stats(&queries);
        let rate = xdn_workloads::sets::covering_rate(&queries);
        println!(
            "{name}: mean length {:.1}, wildcard rate {:.2}, descendant rate {:.2},              covering rate {:.2} (sampled over {} queries)",
            st.mean_length, st.wildcard_rate, st.descendant_rate, rate, st.count
        );
    }
    let rows = fig6::run(scale, 5);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.queries.to_string(),
                r.no_covering.to_string(),
                format!(
                    "{} ({:.0}%)",
                    r.set_a,
                    100.0 * r.set_a as f64 / r.queries as f64
                ),
                format!(
                    "{} ({:.0}%)",
                    r.set_b,
                    100.0 * r.set_b as f64 / r.queries as f64
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Figure 6. Routing Table Size vs XPath Queries (NITF)",
            &[
                "queries",
                "no covering",
                "covering (Set A)",
                "covering (Set B)"
            ],
            &table,
        )
    );
}

fn run_fig7(scale: &Scale) {
    let rows = fig7::run(scale, 5);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.queries.to_string(),
                r.covering.to_string(),
                format!(
                    "{} ({:.0}%)",
                    r.perfect,
                    100.0 * r.perfect as f64 / r.covering as f64
                ),
                format!(
                    "{} ({:.0}%)",
                    r.imperfect,
                    100.0 * r.imperfect as f64 / r.covering as f64
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Figure 7. Routing Table Size with Merging (Set B)",
            &[
                "queries",
                "covering",
                "perfect merging",
                "imperfect merging (D=0.1)"
            ],
            &table,
        )
    );
}

fn run_fig8(scale: &Scale) {
    let r = fig8::run(scale, 10);
    println!(
        "advertisements: NITF {} vs PSD {} ({:.0}x)",
        r.nitf_advs,
        r.psd_advs,
        r.nitf_advs as f64 / r.psd_advs as f64
    );
    for (name, series) in [("NITF", &r.nitf), ("PSD", &r.psd)] {
        let table: Vec<Vec<String>> = series
            .iter()
            .map(|p| {
                vec![
                    p.batch_end.to_string(),
                    format!("{:.1}", p.with_covering_us),
                    format!("{:.1}", p.without_covering_us),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &format!("Figure 8. XPE Processing Time ({name})"),
                &[
                    "subscriptions",
                    "with covering (us)",
                    "without covering (us)"
                ],
                &table,
            )
        );
    }
}

fn run_table1(scale: &Scale) {
    let t = table1::run(scale);
    let rows: Vec<Vec<String>> = (0..4)
        .map(|i| {
            vec![
                t.methods[i].to_string(),
                us(t.set_a[i].mean()),
                us(t.set_a[i].p95()),
                us(t.set_b[i].mean()),
                us(t.set_b[i].p95()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "Table 1. Publication Routing Performance ({} publications, \
                 each its fastest of {} passes)",
                t.publications,
                table1::ROUNDS
            ),
            &[
                "Method",
                "Set A mean (us)",
                "Set A p95 over pubs (us)",
                "Set B mean (us)",
                "Set B p95 over pubs (us)"
            ],
            &rows,
        )
    );
}

fn run_traffic(levels: u32, title: &str, scale: &Scale) {
    let rows = traffic::run(levels, scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                r.traffic.to_string(),
                ms(r.delay),
                r.notifications.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            title,
            &[
                "Method",
                "Network Traffic",
                "Modeled Delay (ms)",
                "Deliveries"
            ],
            &table
        )
    );
}

fn run_fig9(scale: &Scale) {
    let points = fig9::run(scale, &fig9::paper_degrees());
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.degree),
                format!("{:.2}", p.false_positive_pct),
                p.forwards.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Figure 9. False Positives vs Imperfect Degree",
            &["D_imperfect", "false positives (%)", "forwards"],
            &table,
        )
    );
}

fn run_delay(which: delay::DelayDtd, title: &str, scale: &Scale) {
    let sizes = delay::paper_sizes(which);
    let points = delay::run(which, &sizes, scale);
    let mut table = Vec::new();
    for &size in &sizes {
        for covering in [true, false] {
            let mut row = vec![format!(
                "{}K {}",
                size / 1000,
                if covering {
                    "with covering"
                } else {
                    "without covering"
                }
            )];
            for hops in 2..=6u32 {
                let cell = points
                    .iter()
                    .find(|p| p.hops == hops && p.doc_bytes == size && p.covering == covering)
                    .map_or_else(|| "-".to_string(), |p| ms(p.delay));
                row.push(cell);
            }
            table.push(row);
        }
    }
    print!(
        "{}",
        render_table(
            &format!("{title} — modeled notification delay (ms) by hops"),
            &["document", "2 hops", "3 hops", "4 hops", "5 hops", "6 hops"],
            &table,
        )
    );
}
