//! Fig. 7 / §VI-B: defense-aware attacks on the Auto-Cuckoo filter.
//!
//! Paper results:
//! * brute force needs `b·l` fills in expectation (8192 for b=8, l=1024 —
//!   "the adversary needed 8192 memory accesses on average");
//! * a reverse-engineering eviction set must grow as `b^(MNK+1)` (32768 for
//!   b=8, MNK=4), making the targeted attack cost exceed brute force.
//!
//! The empirical reverse-attack sweep runs on a scaled-down filter (l=128,
//! b=8) so the effect is measurable in seconds. The measured quantity is the
//! cost of a *random targeted flood* (addresses whose candidate buckets
//! intersect the target's): cheap at MNK=0, then it jumps to near the
//! brute-force scale for any MNK ≥ 1, because autonomic deletion drops the
//! record at the *end* of the random kick walk, whose final bucket is
//! near-uniform. Deterministically steering that walk is what requires the
//! `b^(MNK+1)` eviction set the paper analyses; that bound is printed
//! alongside (and is the quantity Fig. 7 plots).
//!
//! The brute-force measurement and the four MNK sweep points are five
//! sweep-engine cells evaluated together.
//!
//! Run: `cargo run --release -p pipo-bench --bin fig7_reverse -- \
//!       [trials] [--json PATH] [--sequential | --threads N]`

use auto_cuckoo::{brute_force_expected_fills, reverse_eviction_set_size, FilterParams};
use pipo_attacks::{brute_force_eviction, reverse_engineering_attack};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Json};

enum Cell {
    BruteForce { trials: usize },
    Reverse { mnk: u32, trials: usize },
}

enum CellResult {
    BruteForce {
        mean_fills: f64,
        analytic: u64,
    },
    Reverse {
        mean_fills: f64,
        scaled_set: u64,
        paper_set: u64,
    },
}

fn run_cell(cell: &Cell) -> CellResult {
    match *cell {
        Cell::BruteForce { trials } => {
            let paper = FilterParams::paper_default();
            let bf = brute_force_eviction(paper, trials, 7);
            CellResult::BruteForce {
                mean_fills: bf.mean_fills,
                analytic: brute_force_expected_fills(&paper),
            }
        }
        Cell::Reverse { mnk, trials } => {
            let scaled = FilterParams::builder()
                .buckets(128)
                .entries_per_bucket(8)
                .fingerprint_bits(14)
                .max_kicks(mnk)
                .build()
                .expect("valid parameters");
            let result = reverse_engineering_attack(scaled, trials, 11);
            let paper_cfg = FilterParams::builder()
                .max_kicks(mnk)
                .build()
                .expect("valid parameters");
            CellResult::Reverse {
                mean_fills: result.mean_fills,
                scaled_set: reverse_eviction_set_size(&scaled),
                paper_set: reverse_eviction_set_size(&paper_cfg),
            }
        }
    }
}

fn main() {
    let args = HarnessArgs::parse();
    args.expect_no_filter();
    args.expect_no_trace();
    args.expect_no_store();
    let trials = args.scale_or(30) as usize;
    // Per-trial brute-force cost is geometric with mean b*l, so the sample
    // mean needs a few dozen trials to stabilise.
    let bf_trials = trials.max(50);

    let mut cells = vec![Cell::BruteForce { trials: bf_trials }];
    for mnk in 0..=3u32 {
        cells.push(Cell::Reverse { mnk, trials });
    }
    let results = run_cells(args.mode, &cells, |_, cell| run_cell(cell));

    // --- Brute force on the paper configuration ---
    println!("§VI-B brute force — paper configuration (l=1024, b=8), {bf_trials} trials");
    let CellResult::BruteForce {
        mean_fills,
        analytic,
    } = &results[0]
    else {
        unreachable!("cell 0 is the brute-force cell")
    };
    println!(
        "  measured mean fills to evict target: {mean_fills:.0} (analytic expectation {analytic})"
    );
    println!("  paper: 8192 memory accesses on average\n");

    // --- Reverse engineering sweep over MNK ---
    println!("Fig. 7 reverse-engineering attack — scaled filter (l=128, b=8), {trials} trials");
    println!(
        "{:>5} {:>18} {:>22} {:>26}",
        "MNK", "measured fills", "eviction set b^(MNK+1)", "paper-config set size"
    );
    for (mnk, result) in (0..=3u32).zip(&results[1..]) {
        let CellResult::Reverse {
            mean_fills,
            scaled_set,
            paper_set,
        } = result
        else {
            unreachable!("cells 1.. are reverse cells")
        };
        println!("{mnk:>5} {mean_fills:>18.1} {scaled_set:>22} {paper_set:>26}");
    }
    let paper_mnk4 = reverse_eviction_set_size(&FilterParams::paper_default());
    println!("\npaper config (b=8, MNK=4): eviction set b^(MNK+1) = {paper_mnk4} (paper: 32768)");
    println!("targeted attack cost exceeds brute force -> reverse engineering impractical");

    let json_cells = cells
        .iter()
        .zip(&results)
        .map(|(cell, result)| match (cell, result) {
            (
                Cell::BruteForce { trials },
                CellResult::BruteForce {
                    mean_fills,
                    analytic,
                },
            ) => Json::object()
                .field("kind", "brute_force")
                .field("trials", *trials)
                .field("mean_fills", *mean_fills)
                .field("analytic_expected_fills", *analytic),
            (
                Cell::Reverse { mnk, trials },
                CellResult::Reverse {
                    mean_fills,
                    scaled_set,
                    paper_set,
                },
            ) => Json::object()
                .field("kind", "reverse")
                .field("mnk", *mnk)
                .field("trials", *trials)
                .field("mean_fills", *mean_fills)
                .field("eviction_set_scaled", *scaled_set)
                .field("eviction_set_paper", *paper_set),
            _ => unreachable!("cell kind matches result kind"),
        })
        .collect();
    emit_json(
        args.json.as_deref(),
        &sweep_document("fig7_reverse", args.mode, Json::object(), json_cells),
    );
}
