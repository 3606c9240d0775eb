//! Export the LDBC-SNB-like dataset as CSV files (the downstream-tool
//! equivalent of running LDBC DATAGEN).
//!
//! ```text
//! cargo run -p gsql-datagen --release --bin snb_export -- 0.1 /tmp/snb
//! # writes /tmp/snb/persons.csv and /tmp/snb/friends.csv
//! ```

#![forbid(unsafe_code)]

use gsql_datagen::{SnbDataset, SnbParams};
use gsql_storage::csv::write_csv;
use std::io::BufWriter;

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| usage("missing or invalid scale factor"));
    let dir = args.next().unwrap_or_else(|| usage("missing output directory"));

    let t0 = std::time::Instant::now();
    let data = SnbDataset::generate(SnbParams::new(sf));
    eprintln!(
        "generated SF {sf}: {} persons, {} directed edges in {:?}",
        data.num_persons,
        data.num_edges,
        t0.elapsed()
    );

    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("mkdir {dir}: {e}")));
    for (name, table) in [("persons", &data.persons), ("friends", &data.friends)] {
        let path = format!("{dir}/{name}.csv");
        let file =
            std::fs::File::create(&path).unwrap_or_else(|e| fail(&format!("create {path}: {e}")));
        let mut out = BufWriter::new(file);
        write_csv(table, &mut out).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("wrote {path} ({} rows)", table.row_count());
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: snb_export <scale-factor> <output-dir>");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
