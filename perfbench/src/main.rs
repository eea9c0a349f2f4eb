//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --provmin <binary> --out <dir> [--provenance <json file>]`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero,
//! without that line, when the run cannot be completed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::Workload;
use perfbench::{run, Options};
use prov_server::Json;

fn parse_args() -> Result<(Options, Option<PathBuf>), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut provmin, mut out, mut provenance) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be positive")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--provmin" => provmin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--provenance" => provenance = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let options = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        provmin: provmin.ok_or("--provmin is required")?,
        out: out.ok_or("--out is required")?,
    };
    Ok((options, provenance))
}

fn main() -> ExitCode {
    let (options, provenance) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&options) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let provenance = provenance
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Null);
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(result.correct)),
        ("attempted".into(), Json::from_u64(result.attempted)),
        ("failed".into(), Json::from_u64(result.failed)),
        (
            "metrics".into(),
            Json::Obj(
                result
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let record = Json::Obj(vec![
        ("provenance".into(), provenance),
        ("run".into(), result.record),
        ("summary".into(), summary.clone()),
    ]);
    let record_path = options.out.join("result.json");
    if let Err(e) = std::fs::write(&record_path, record.to_string()) {
        eprintln!("perfbench: {}: {e}", record_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# {} seed={} seconds={} trace={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    for line in &result.report {
        println!("{line}");
    }
    println!("{summary}");
    ExitCode::SUCCESS
}
