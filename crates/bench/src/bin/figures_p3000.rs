//! Figures 3, 4 and 5 from a **single** P = 3000 comparison sweep (all
//! three figures come from the same pair of simulations in the paper too,
//! §6.2.1):
//!
//! * Figure 3, hit ratio over the 24-hour run: Squirrel leads during the
//!   warm-up, then churn caps it while Flower-CDN keeps climbing — "the
//!   improvement reaches 40% after 24 simulation hours".
//! * Figure 4, lookup latency distribution: "66% of our queries are
//!   resolved within 150 ms while 75% of Squirrel's queries take more than
//!   1200 ms".
//! * Figure 5, transfer distance distribution: "the percentage of queries
//!   served from a distance within 100 ms is 62% for Flower-CDN and 22% for
//!   Squirrel".
//!
//! ```sh
//! cargo run --release -p flower-bench --bin figures_p3000 [-- --quick]
//! cargo run --release -p flower-bench --bin figures_p3000 -- --seeds 1..6 --jobs 4
//! cargo run --release -p flower-bench --bin figures_p3000 -- \
//!     --quick --trace-out results/traces --gauges 300000
//! ```

use cdn_metrics::{ascii_bars, ascii_lines, Csv, Histogram};
use flower_bench::{run_comparison_sweep, HarnessOpts};
use flower_cdn::experiments::{hit_ratio_series, lookup_histogram, transfer_histogram};

/// Figure 4 or 5 as CSV: each bucket's fraction of queries, both systems.
fn histogram_csv(flower: &Histogram, squirrel: &Histogram) -> Csv {
    let mut csv = Csv::new(&["bucket_ms", "flower_fraction", "squirrel_fraction"]);
    let (ff, sf) = (flower.fractions(), squirrel.fractions());
    for (i, label) in flower.labels().into_iter().enumerate() {
        csv.row(&[label, format!("{:.4}", ff[i]), format!("{:.4}", sf[i])]);
    }
    csv
}

fn main() {
    let opts = HarnessOpts::parse(&["--population", "--gauges"]);
    let params = opts.params(3_000);
    println!("{}", params.table1());
    let seeds = opts.seed_list(params.seed);
    println!(
        "running Flower-CDN and Squirrel over seeds {seeds:?} with --jobs {}…",
        opts.jobs()
    );
    let run = run_comparison_sweep(&opts, params.clone());
    let dir = opts.results_dir();

    // ---------------- Figure 3 ----------------
    let bucket = (params.horizon_ms / 24).max(60_000);
    let flower = hit_ratio_series(&run.flower.records, bucket);
    let squirrel = hit_ratio_series(&run.squirrel.records, bucket);
    println!(
        "{}",
        ascii_lines(
            "Figure 3: hit ratio over time (cumulative)",
            &[("Flower-CDN", &flower), ("Squirrel", &squirrel)],
            72,
            18,
        )
    );
    println!(
        "final hit ratio: Flower-CDN {:.3}  Squirrel {:.3}  ({:+.0}% relative)",
        run.flower.stats.hit_ratio(),
        run.squirrel.stats.hit_ratio(),
        (run.flower.stats.hit_ratio() / run.squirrel.stats.hit_ratio() - 1.0) * 100.0
    );
    let mut csv = Csv::new(&["hours", "flower_hit_ratio", "squirrel_hit_ratio"]);
    for (i, (h, f)) in flower.iter().enumerate() {
        let s = squirrel.get(i).map(|&(_, s)| s).unwrap_or(f64::NAN);
        csv.row(&[format!("{h:.2}"), format!("{f:.4}"), format!("{s:.4}")]);
    }
    csv.save(dir.join("fig3_hit_ratio.csv")).expect("csv");

    // ---------------- Figure 4 ----------------
    let fl = lookup_histogram(&run.flower.records);
    let sl = lookup_histogram(&run.squirrel.records);
    println!(
        "{}",
        ascii_bars(
            "Figure 4: lookup latency distribution (fraction per bucket, ms)",
            &fl.labels(),
            &[("Flower-CDN", fl.fractions()), ("Squirrel", sl.fractions())],
        )
    );
    println!(
        "within 150 ms: F {:.0}% / S {:.0}%   beyond 1200 ms: F {:.0}% / S {:.0}%   mean: F {:.0} / S {:.0} ms ({:.1}×)",
        fl.fraction_within(150) * 100.0,
        sl.fraction_within(150) * 100.0,
        fl.fraction_overflow() * 100.0,
        sl.fraction_overflow() * 100.0,
        fl.mean(),
        sl.mean(),
        sl.mean() / fl.mean().max(1.0),
    );
    histogram_csv(&fl, &sl)
        .save(dir.join("fig4_lookup_latency.csv"))
        .expect("csv");

    // ---------------- Figure 5 ----------------
    let ft = transfer_histogram(&run.flower.records);
    let st = transfer_histogram(&run.squirrel.records);
    println!(
        "{}",
        ascii_bars(
            "Figure 5: transfer distance distribution (fraction per bucket, ms)",
            &ft.labels(),
            &[("Flower-CDN", ft.fractions()), ("Squirrel", st.fractions())],
        )
    );
    println!(
        "within 100 ms: F {:.0}% / S {:.0}%   mean transfer: F {:.0} / S {:.0} ms ({:.1}×)",
        ft.fraction_within(100) * 100.0,
        st.fraction_within(100) * 100.0,
        ft.mean(),
        st.mean(),
        st.mean() / ft.mean().max(1.0),
    );
    histogram_csv(&ft, &st)
        .save(dir.join("fig5_transfer_distance.csv"))
        .expect("csv");

    sweep::runs_csv(&run.cells)
        .save(dir.join("figures_p3000_runs.csv"))
        .expect("runs csv");

    println!(
        "wrote fig3_hit_ratio.csv, fig4_lookup_latency.csv, fig5_transfer_distance.csv, \
         figures_p3000_runs.csv under {}",
        dir.display()
    );

    flower_bench::write_profile_report(&opts, &run.cells);

    if let Some(d) = &opts.trace_out {
        println!(
            "wrote one trace per run to {0}/<cell>_s<seed>.jsonl; reconstruct a \
             query with: grep '\"qid\":<id>[,}}]' {0}/flower_s{1}.jsonl",
            d.display(),
            seeds[0],
        );
    }
    if !run.flower.gauges.is_empty() {
        println!(
            "{}",
            run.flower.gauges.ascii_chart(
                "Flower-CDN gauges: population / D-ring size",
                &["population", "dring_size"],
                72,
                12,
            )
        );
        let gpath = dir.join("fig3_gauges.csv");
        run.flower
            .gauges
            .to_csv()
            .save(&gpath)
            .expect("write gauges csv");
        println!("wrote {}", gpath.display());
    }
}
