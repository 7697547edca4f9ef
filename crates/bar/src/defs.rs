//! Declarative benchmark definitions: the (workload x scheme x engine)
//! matrix, run parameters, and regression gates, parsed from a
//! committed `benchmarks.bar` file.
//!
//! The format is deliberately line-based (`key value...`, `#` comments)
//! so diffs review like configuration, not code:
//!
//! ```text
//! format 1
//! scale 0.05
//! seed 1
//! warmup 1
//! iters 3
//! shards 4
//! engine reference
//! engine simd
//! engine sharded
//! workload all
//! scheme union(pid+pc8)2[forwarded]
//! gate ratio simd/reference min 10.0
//! gate regression default 0.5
//! gate regression engine sharded 0.85
//! gate regression cell simd water union(pid+pc8)2[forwarded] 0.30
//! ```
//!
//! Every engine a gate names must have its own `engine` line: a gate on
//! an undeclared engine could never match a cell and would pass silently,
//! so parsing rejects it with [`BarError::UndeclaredEngine`].
//!
//! The definitions carry a 64-bit *matrix fingerprint* over the format
//! version and the engine/workload/scheme sets. Every measurement
//! record stores the fingerprint of the definitions it was produced
//! under; readers reject records whose fingerprint does not match the
//! definitions file they are gating against, so a re-shaped matrix can
//! never silently masquerade as history for the old one.

use crate::BarError;
use csp_core::Scheme;
use csp_harness::checkpoint::Fingerprint;
use csp_harness::engines::ENGINE_NAMES;
use csp_workloads::Benchmark;
use std::fmt;

/// One cell of the matrix, as the strings a record stores. Workload and
/// scheme are strings rather than enums so records stay readable when
/// the matrix that produced them is reshaped.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// Engine name (`reference`, `simd`, `sharded`).
    pub engine: String,
    /// Workload name (a benchmark, or `suite` for whole-suite cells).
    pub workload: String,
    /// Scheme notation.
    pub scheme: String,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.engine, self.workload, self.scheme)
    }
}

/// A declared minimum on the throughput ratio of two engines, averaged
/// (geometric mean) over every (workload, scheme) cell both cover in
/// one run. Machine-relative: both engines run back to back on the same
/// box, so a slow runner cannot trip it but a real regression does.
#[derive(Clone, Debug, PartialEq)]
pub struct RatioGate {
    /// The engine whose throughput is the numerator.
    pub numerator: String,
    /// The engine whose throughput is the denominator.
    pub denominator: String,
    /// The floor the geometric-mean ratio must reach.
    pub min: f64,
}

impl fmt::Display for RatioGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ratio {}/{} >= {:.2}",
            self.numerator, self.denominator, self.min
        )
    }
}

/// The parsed definitions file.
#[derive(Clone, Debug, PartialEq)]
pub struct BarDefs {
    /// Definitions format version (currently 1).
    pub format: u32,
    /// Workload scale factor runs use by default.
    pub scale: f64,
    /// Suite seed runs use by default.
    pub seed: u64,
    /// Untimed passes per (cell, engine) after the cross-check pass.
    pub warmup: usize,
    /// Timed iterations per (cell, engine); the fastest is the
    /// throughput sample, the spread feeds p50/p99.
    pub iters: usize,
    /// Worker shards for the sharded serving engine.
    pub shards: usize,
    /// Engine names, in declaration order. The first is the ratio
    /// baseline for regression checks.
    pub engines: Vec<String>,
    /// Workloads, in declaration order.
    pub workloads: Vec<Benchmark>,
    /// Schemes, in declaration order.
    pub schemes: Vec<Scheme>,
    /// Declared minimum-ratio gates.
    pub ratio_gates: Vec<RatioGate>,
    /// Default allowed per-cell regression (fraction of the committed
    /// relative throughput a cell may lose before `check` fails).
    pub default_regression: f64,
    /// Per-engine regression overrides.
    pub engine_regression: Vec<(String, f64)>,
    /// Per-cell regression overrides (most specific, wins over engine).
    pub cell_regression: Vec<(CellKey, f64)>,
}

impl BarDefs {
    /// The built-in matrix: every workload, the verification-grid scheme
    /// spread (one per update mode), all three engines, and their gates.
    ///
    /// # Panics
    ///
    /// Never in practice: the built-in text is a test-covered constant.
    pub fn builtin() -> Self {
        match Self::parse(BUILTIN_DEFS) {
            Ok(d) => d,
            Err(e) => panic!("built-in definitions must parse: {e}"),
        }
    }

    /// Parses a definitions file.
    ///
    /// # Errors
    ///
    /// Returns [`BarError::Defs`] naming the offending line, or
    /// [`BarError::UndeclaredEngine`] for a gate on an engine no `engine`
    /// line declares.
    pub fn parse(text: &str) -> Result<Self, BarError> {
        let mut defs = BarDefs {
            format: 1,
            scale: 0.05,
            seed: 1,
            warmup: 1,
            iters: 3,
            shards: 4,
            engines: Vec::new(),
            workloads: Vec::new(),
            schemes: Vec::new(),
            ratio_gates: Vec::new(),
            default_regression: 0.5,
            engine_regression: Vec::new(),
            cell_regression: Vec::new(),
        };
        // (line, engine) for every engine a gate names, validated once
        // every `engine` line has been read.
        let mut gated: Vec<(usize, String)> = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = n + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut parts = content.split_whitespace();
            let key = parts.next().unwrap_or("");
            let rest: Vec<&str> = parts.collect();
            match key {
                "format" => defs.format = parse_num(&rest, line, "format")?,
                "scale" => {
                    defs.scale = parse_num(&rest, line, "scale")?;
                    if defs.scale <= 0.0 {
                        return err(line, "scale must be positive");
                    }
                }
                "seed" => defs.seed = parse_num(&rest, line, "seed")?,
                "warmup" => defs.warmup = parse_num(&rest, line, "warmup")?,
                "iters" => {
                    defs.iters = parse_num(&rest, line, "iters")?;
                    if defs.iters == 0 {
                        return err(line, "iters must be at least 1");
                    }
                }
                "shards" => {
                    defs.shards = parse_num(&rest, line, "shards")?;
                    if defs.shards == 0 {
                        return err(line, "shards must be at least 1");
                    }
                }
                "engine" => match rest.as_slice() {
                    [name] if ENGINE_NAMES.contains(name) => {
                        defs.engines.push((*name).to_string());
                    }
                    [name] => {
                        return err(
                            line,
                            &format!("unknown engine {name:?} (known: {ENGINE_NAMES:?})"),
                        )
                    }
                    _ => return err(line, "engine takes exactly one name"),
                },
                "workload" => match rest.as_slice() {
                    ["all"] => defs.workloads.extend(Benchmark::ALL),
                    [name] => match Benchmark::from_name(name) {
                        Some(b) => defs.workloads.push(b),
                        None => return err(line, &format!("unknown workload {name:?}")),
                    },
                    _ => return err(line, "workload takes exactly one name (or `all`)"),
                },
                "scheme" => match rest.as_slice() {
                    [notation] => match notation.parse::<Scheme>() {
                        Ok(s) => defs.schemes.push(s),
                        Err(e) => return err(line, &format!("bad scheme {notation:?}: {e}")),
                    },
                    _ => return err(line, "scheme takes exactly one notation"),
                },
                "gate" => parse_gate(&mut defs, &rest, line, &mut gated)?,
                other => return err(line, &format!("unknown directive {other:?}")),
            }
        }
        if defs.format != 1 {
            return err(0, &format!("unsupported format version {}", defs.format));
        }
        if defs.engines.is_empty() || defs.workloads.is_empty() || defs.schemes.is_empty() {
            return err(
                0,
                "definitions need at least one engine, workload, and scheme",
            );
        }
        if let Some((line, engine)) = gated.into_iter().find(|(_, e)| !defs.engines.contains(e)) {
            return Err(BarError::UndeclaredEngine { line, engine });
        }
        Ok(defs)
    }

    /// The matrix fingerprint: format version plus the engine, workload,
    /// and scheme sets in declaration order. Run parameters and gates
    /// are deliberately excluded — retuning a threshold or an iteration
    /// count must not orphan the committed trajectory. Scale and seed
    /// are excluded too, but they select history instead:
    /// [`crate::check`] gates only against committed records of the
    /// same `scale` and `seed`.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("csp-bar-defs-v1").push_u64(u64::from(self.format));
        for e in &self.engines {
            fp = fp.push(e.as_bytes());
        }
        for w in &self.workloads {
            fp = fp.push(w.name().as_bytes());
        }
        for s in &self.schemes {
            fp = fp.push(s.to_string().as_bytes());
        }
        fp.finish()
    }

    /// The allowed regression fraction for one cell: cell override, then
    /// engine override, then the default.
    pub fn regression_threshold(&self, cell: &CellKey) -> f64 {
        if let Some((_, t)) = self.cell_regression.iter().find(|(k, _)| k == cell) {
            return *t;
        }
        if let Some((_, t)) = self
            .engine_regression
            .iter()
            .find(|(e, _)| *e == cell.engine)
        {
            return *t;
        }
        self.default_regression
    }

    /// The engine regression ratios are measured against: the first
    /// declared engine.
    pub fn baseline_engine(&self) -> &str {
        &self.engines[0]
    }
}

fn parse_gate(
    defs: &mut BarDefs,
    rest: &[&str],
    line: usize,
    gated: &mut Vec<(usize, String)>,
) -> Result<(), BarError> {
    match rest {
        ["ratio", pair, "min", value] => {
            let (num, den) = pair
                .split_once('/')
                .ok_or_else(|| defs_err(line, "ratio gate needs `numerator/denominator`"))?;
            let min: f64 = value
                .parse()
                .map_err(|_| defs_err(line, "ratio gate min must be a number"))?;
            gated.push((line, num.to_string()));
            gated.push((line, den.to_string()));
            defs.ratio_gates.push(RatioGate {
                numerator: num.to_string(),
                denominator: den.to_string(),
                min,
            });
            Ok(())
        }
        ["regression", "default", value] => {
            defs.default_regression = parse_fraction(value, line)?;
            Ok(())
        }
        ["regression", "engine", name, value] => {
            gated.push((line, (*name).to_string()));
            defs.engine_regression
                .push(((*name).to_string(), parse_fraction(value, line)?));
            Ok(())
        }
        ["regression", "cell", engine, workload, scheme, value] => {
            gated.push((line, (*engine).to_string()));
            let key = CellKey {
                engine: (*engine).to_string(),
                workload: (*workload).to_string(),
                scheme: (*scheme).to_string(),
            };
            defs.cell_regression
                .push((key, parse_fraction(value, line)?));
            Ok(())
        }
        _ => err(
            line,
            "gate forms: `gate ratio A/B min X`, `gate regression default X`, \
             `gate regression engine NAME X`, `gate regression cell ENGINE WORKLOAD SCHEME X`",
        ),
    }
}

fn parse_fraction(value: &str, line: usize) -> Result<f64, BarError> {
    let v: f64 = value
        .parse()
        .map_err(|_| defs_err(line, "regression threshold must be a number"))?;
    if !(0.0..1.0).contains(&v) {
        return Err(defs_err(line, "regression threshold must be in [0, 1)"));
    }
    Ok(v)
}

fn parse_num<T: std::str::FromStr>(rest: &[&str], line: usize, key: &str) -> Result<T, BarError> {
    match rest {
        [one] => one
            .parse()
            .map_err(|_| defs_err(line, &format!("{key} needs a valid number"))),
        _ => Err(defs_err(line, &format!("{key} takes exactly one value"))),
    }
}

fn defs_err(line: usize, detail: &str) -> BarError {
    BarError::Defs {
        line,
        detail: detail.to_string(),
    }
}

fn err<T>(line: usize, detail: &str) -> Result<T, BarError> {
    Err(defs_err(line, detail))
}

/// The built-in definitions text, identical to the committed
/// `benchmarks.bar` at the time of writing.
pub const BUILTIN_DEFS: &str = "\
# csp-bar benchmark definitions (see crates/bar/FORMAT.md)
format 1
scale 0.05
seed 1
warmup 1
iters 3
shards 4

# Engines, baseline (ratio denominator) first: the reference evaluator,
# the production trace-order kernel, the sharded serving engine. The
# kernel keeps the name `simd` from an earlier vectorised accumulator:
# the matrix fingerprint hashes engine names, so renaming it would
# orphan the committed trajectory.
engine reference
engine simd
engine sharded

workload all

# One scheme per update mode, mirroring the serve verification grid,
# and PAs, whose sharded cells run the online table's PAs states.
scheme last(pid+pc8)1[direct]
scheme union(pid+pc8)2[forwarded]
scheme union(dir+add8)2[ordered]
scheme pas(pid+add8)1[direct]

# The kernel must stay well ahead of the reference (geometric mean over
# the matrix); no cell may lose more than its declared fraction of
# committed relative throughput. Per-cell timings at this scale are
# sub-millisecond, so the per-cell tolerance is wide; the ratio gate
# catches systematic collapse.
gate ratio simd/reference min 10.0
gate regression default 0.5
# The sharded engine replays through the supervised workers a server
# runs (one engine, reset per cell), so it times routing, channel and
# the production apply path; its relative throughput is still noisy
# across runner core counts.
gate regression engine sharded 0.85
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_parses_and_covers_the_acceptance_matrix() {
        let d = BarDefs::builtin();
        assert_eq!(d.format, 1);
        assert_eq!(d.engines, vec!["reference", "simd", "sharded"]);
        assert_eq!(d.workloads.len(), 7);
        assert_eq!(d.schemes.len(), 4);
        assert_eq!(d.baseline_engine(), "reference");
        assert_eq!(d.ratio_gates.len(), 1);
        assert_eq!(d.ratio_gates[0].numerator, "simd");
        assert_eq!(d.ratio_gates[0].denominator, "reference");
    }

    #[test]
    fn fingerprint_tracks_matrix_not_tuning() {
        let a = BarDefs::builtin();
        let mut b = a.clone();
        b.scale = 0.5;
        b.iters = 9;
        b.default_regression = 0.1;
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.schemes.pop();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.engines.pop();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn threshold_precedence_is_cell_engine_default() {
        let mut d = BarDefs::builtin();
        let cell = CellKey {
            engine: "sharded".to_string(),
            workload: "water".to_string(),
            scheme: "last(pid+pc8)1[direct]".to_string(),
        };
        assert!((d.regression_threshold(&cell) - 0.85).abs() < 1e-12);
        d.cell_regression.push((cell.clone(), 0.10));
        assert!((d.regression_threshold(&cell) - 0.10).abs() < 1e-12);
        let other = CellKey {
            engine: "simd".to_string(),
            workload: "water".to_string(),
            scheme: "last(pid+pc8)1[direct]".to_string(),
        };
        assert!((d.regression_threshold(&other) - d.default_regression).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_bad_lines_with_line_numbers() {
        for (text, needle) in [
            ("format 1\nengine warp\n", "unknown engine"),
            ("format 1\nworkload mars\n", "unknown workload"),
            ("format 1\nscheme banana\n", "bad scheme"),
            ("format 1\nscale -2\n", "positive"),
            (
                "format 2\nengine reference\nworkload all\nscheme last(pid+pc8)1\n",
                "unsupported format",
            ),
            ("format 1\nfrobnicate\n", "unknown directive"),
            ("format 1\ngate regression default 1.5\n", "[0, 1)"),
            ("format 1\ngate ratio simd min 2\n", "numerator/denominator"),
            ("", "at least one engine"),
        ] {
            let e = BarDefs::parse(text).expect_err(text);
            assert!(e.to_string().contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let d = BarDefs::parse(
            "# header\nformat 1\n\nengine reference # trailing\nworkload water\nscheme last(pid+pc8)1\n",
        )
        .expect("parses");
        assert_eq!(d.engines, vec!["reference"]);
        assert_eq!(d.workloads, vec![Benchmark::Water]);
    }

    #[test]
    fn gates_on_undeclared_engines_are_rejected() {
        let head =
            "format 1\nengine reference\nengine simd\nworkload water\nscheme last(pid+pc8)1\n";
        for (gate, engine) in [
            ("gate ratio simd/naive min 2", "naive"),
            ("gate ratio prepared/reference min 2", "prepared"),
            ("gate regression engine sharded 0.5", "sharded"),
            (
                "gate regression cell naive water last(pid+pc8)1 0.3",
                "naive",
            ),
        ] {
            let text = format!("{head}{gate}\n");
            match BarDefs::parse(&text) {
                Err(BarError::UndeclaredEngine { line, engine: got }) => {
                    assert_eq!(line, 6, "{gate}");
                    assert_eq!(got, engine, "{gate}");
                }
                other => panic!("{gate}: expected UndeclaredEngine, got {other:?}"),
            }
        }
        // A gate may precede the engine lines it names.
        let early = "format 1\ngate ratio simd/reference min 2\nengine reference\nengine simd\n\
                     workload water\nscheme last(pid+pc8)1\n";
        assert_eq!(
            BarDefs::parse(early).expect("declared").ratio_gates.len(),
            1
        );
    }
}
