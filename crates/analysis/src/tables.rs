//! Result containers and paper-style table/figure formatting.
//!
//! One [`ExperimentCell`] holds everything measured for a (workload,
//! compiler, ISA) combination; a [`ResultMatrix`] formats the full set the
//! way the paper reports it (Tables 1-2, Figures 1-2).

use telemetry::Json;

/// All measurements for one (workload, compiler, ISA) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCell {
    /// Workload name ("STREAM", ...).
    pub workload: String,
    /// Compiler label ("gcc-9.2" / "gcc-12.2").
    pub compiler: String,
    /// ISA label ("AArch64" / "RISC-V").
    pub isa: String,
    /// Dynamic instruction count.
    pub path_length: u64,
    /// Unit-cost critical path.
    pub critical_path: u64,
    /// Latency-scaled critical path (TX2 latencies).
    pub scaled_cp: u64,
    /// Per-kernel instruction counts, in kernel order.
    pub kernels: Vec<(String, u64)>,
    /// Windowed-CP stats: (window size, mean CP, mean ILP).
    pub windows: Vec<(usize, f64, f64)>,
    /// Macro-op fusion measurements, present only when the cell ran with
    /// the fusion axis armed. `None` serializes to nothing, so unfused
    /// matrices are byte-identical to those written before fusion existed.
    pub fused: Option<FusedCell>,
}

/// Macro-op fusion measurements for one cell (the `crates/fusion` pass's
/// report, flattened to plain data so `analysis` stays decoupled from the
/// fusion crate).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedCell {
    /// Adjacent pairs fused; each removes one instruction from the path.
    pub fused_pairs: u64,
    /// Effective (fused) dynamic path length.
    pub effective_path_length: u64,
    /// Unit-cost critical path of the fused stream.
    pub fused_critical_path: u64,
    /// TX2-scaled critical path of the fused stream.
    pub fused_scaled_cp: u64,
    /// Non-zero per-pair-kind counts, `(pair name, count)` in table order.
    pub pair_counts: Vec<(String, u64)>,
    /// Effective per-kernel instruction counts, in kernel order.
    pub effective_kernels: Vec<(String, u64)>,
}

impl FusedCell {
    /// ILP of the fused stream from its unit-cost critical path.
    pub fn ilp(&self) -> f64 {
        self.effective_path_length as f64 / self.fused_critical_path.max(1) as f64
    }
}

impl ExperimentCell {
    /// ILP from the unit-cost critical path.
    pub fn ilp(&self) -> f64 {
        self.path_length as f64 / self.critical_path.max(1) as f64
    }

    /// ILP from the scaled critical path.
    pub fn scaled_ilp(&self) -> f64 {
        self.path_length as f64 / self.scaled_cp.max(1) as f64
    }

    /// 2 GHz runtime estimate (ms) from the unit-cost CP.
    pub fn runtime_ms(&self) -> f64 {
        crate::runtime_ms(self.critical_path)
    }

    /// 2 GHz runtime estimate (ms) from the scaled CP.
    pub fn scaled_runtime_ms(&self) -> f64 {
        crate::runtime_ms(self.scaled_cp)
    }
}

/// Record of a cell that could not be measured: which combination failed,
/// how (`kind` is one of the typed `CellError` kinds — "compile", "load",
/// "sim", "panic", "checksum", "timeout"), and how hard the harness tried.
/// Kept as plain strings so the analysis crate stays decoupled from the
/// orchestration layer's error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Workload name ("STREAM", ...).
    pub workload: String,
    /// Compiler label ("gcc-9.2" / "gcc-12.2").
    pub compiler: String,
    /// ISA label ("AArch64" / "RISC-V").
    pub isa: String,
    /// Failure kind, rendered as `ERR(<kind>)` in the tables.
    pub kind: String,
    /// Human-readable detail (the underlying error's display).
    pub detail: String,
    /// Retries spent before giving up on the cell.
    pub retries: u64,
}

/// The full experiment matrix plus formatters for every paper artefact.
/// A matrix may be *partial*: combinations that failed are carried in
/// [`ResultMatrix::failures`] and render as `ERR(<kind>)` cells instead of
/// discarding the run.
#[derive(Debug, Clone, Default)]
pub struct ResultMatrix {
    /// All successfully measured cells.
    pub cells: Vec<ExperimentCell>,
    /// Combinations that failed (graceful-degradation record).
    pub failures: Vec<CellFailure>,
}

impl ResultMatrix {
    /// Look up a cell.
    pub fn get(&self, workload: &str, compiler: &str, isa: &str) -> Option<&ExperimentCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.compiler == compiler && c.isa == isa)
    }

    /// Look up a failure record.
    pub fn get_failure(&self, workload: &str, compiler: &str, isa: &str) -> Option<&CellFailure> {
        self.failures
            .iter()
            .find(|c| c.workload == workload && c.compiler == compiler && c.isa == isa)
    }

    /// Does the matrix hold an outcome, a cell or a failure, for this
    /// combination?
    pub fn has_record(&self, workload: &str, compiler: &str, isa: &str) -> bool {
        self.get(workload, compiler, isa).is_some()
            || self.get_failure(workload, compiler, isa).is_some()
    }

    /// True when every attempted cell was measured.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line per failure, for operator-facing summaries.
    pub fn failure_summary(&self) -> String {
        self.failures
            .iter()
            .map(|f| {
                format!(
                    "ERR({}) {} {} {}: {} ({} retries)\n",
                    f.kind, f.workload, f.compiler, f.isa, f.detail, f.retries
                )
            })
            .collect()
    }

    /// Distinct workloads in insertion order (failed-only workloads
    /// included, so partial tables still show every row).
    pub fn workloads(&self) -> Vec<String> {
        let mut out = Vec::new();
        for w in self
            .cells
            .iter()
            .map(|c| &c.workload)
            .chain(self.failures.iter().map(|f| &f.workload))
        {
            if !out.contains(w) {
                out.push(w.clone());
            }
        }
        out
    }

    fn compilers(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in self
            .cells
            .iter()
            .map(|c| &c.compiler)
            .chain(self.failures.iter().map(|f| &f.compiler))
        {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        out
    }

    /// Render Table 1 (path length, CP, ILP, 2 GHz runtime).
    pub fn table1(&self) -> String {
        self.render_table(
            "Table 1: Critical Paths and ILP per Benchmark",
            &[
                ("Path Length", &|c: &ExperimentCell| fmt_u64(c.path_length)),
                ("CP", &|c| fmt_u64(c.critical_path)),
                ("ILP", &|c| format!("{:.0}", c.ilp())),
                ("2GHz Run time (ms)", &|c| fmt_ms(c.runtime_ms())),
            ],
        )
    }

    /// Render Table 2 (scaled CP, ILP, 2 GHz runtime).
    pub fn table2(&self) -> String {
        self.render_table(
            "Table 2: Scaled Critical Paths and ILP per Benchmark",
            &[
                ("Scaled CP", &|c: &ExperimentCell| fmt_u64(c.scaled_cp)),
                ("ILP", &|c| format!("{:.0}", c.scaled_ilp())),
                ("2GHz Run time (ms)", &|c| fmt_ms(c.scaled_runtime_ms())),
            ],
        )
    }

    /// True when at least one cell carries fusion measurements (i.e. the
    /// matrix was produced with the fusion axis armed).
    pub fn has_fused(&self) -> bool {
        self.cells.iter().any(|c| c.fused.is_some())
    }

    /// Render the fused-vs-unfused comparison (Table-1 layout): per
    /// workload, the unfused path length and critical path next to the
    /// macro-op-fused effective values, the reduction, and the fused pair
    /// count. Cells without fusion data render `-`.
    pub fn fusion_table(&self) -> String {
        let fused = |c: &ExperimentCell, f: &dyn Fn(&FusedCell) -> String| match &c.fused {
            Some(fc) => f(fc),
            None => "-".to_string(),
        };
        self.render_table(
            "Table F: Macro-op Fusion — effective path length and fused CP",
            &[
                ("Path Length", &|c: &ExperimentCell| fmt_u64(c.path_length)),
                ("Effective PL", &|c| {
                    fused(c, &|f| fmt_u64(f.effective_path_length))
                }),
                ("Fused pairs", &|c| fused(c, &|f| fmt_u64(f.fused_pairs))),
                ("PL reduction", &|c| {
                    fused(c, &|f| {
                        let base = c.path_length.max(1) as f64;
                        format!(
                            "{:.1}%",
                            100.0 * (1.0 - f.effective_path_length as f64 / base)
                        )
                    })
                }),
                ("CP", &|c| fmt_u64(c.critical_path)),
                ("Fused CP", &|c| {
                    fused(c, &|f| fmt_u64(f.fused_critical_path))
                }),
                ("Fused scaled CP", &|c| {
                    fused(c, &|f| fmt_u64(f.fused_scaled_cp))
                }),
                ("Fused ILP", &|c| fused(c, &|f| format!("{:.0}", f.ilp()))),
            ],
        )
    }

    /// Fusion figure data, one row per fused pair kind per cell, as CSV
    /// (`workload,compiler,isa,pair,count,per_kilo_inst`). Cells without
    /// fusion data contribute nothing; failed cells contribute one
    /// `ERR(<kind>)` placeholder row so partial matrices stay visible.
    pub fn fusion_csv(&self) -> String {
        let mut out = String::from("workload,compiler,isa,pair,count,per_kilo_inst\n");
        for c in &self.cells {
            let Some(fc) = &c.fused else { continue };
            for (pair, count) in &fc.pair_counts {
                out.push_str(&format!(
                    "{},{},{},{},{},{:.3}\n",
                    c.workload,
                    c.compiler,
                    c.isa,
                    pair,
                    count,
                    1000.0 * *count as f64 / c.path_length.max(1) as f64
                ));
            }
        }
        for f in &self.failures {
            out.push_str(&format!(
                "{},{},{},ERR({}),0,0.000\n",
                f.workload, f.compiler, f.isa, f.kind
            ));
        }
        out
    }

    #[allow(clippy::type_complexity)]
    fn render_table(
        &self,
        title: &str,
        rows: &[(&str, &dyn Fn(&ExperimentCell) -> String)],
    ) -> String {
        let mut out = String::new();
        out.push_str(title);
        out.push('\n');
        for w in self.workloads() {
            out.push_str(&format!("\n== {w} ==\n"));
            let mut header = format!("{:<22}", "");
            let mut cols: Vec<Result<&ExperimentCell, &CellFailure>> = Vec::new();
            for compiler in self.compilers() {
                for isa in ["AArch64", "RISC-V"] {
                    let col = match self.get(&w, &compiler, isa) {
                        Some(c) => Some(Ok(c)),
                        None => self.get_failure(&w, &compiler, isa).map(Err),
                    };
                    if let Some(col) = col {
                        header.push_str(&format!("{:>24}", format!("{compiler}/{isa}")));
                        cols.push(col);
                    }
                }
            }
            out.push_str(&header);
            out.push('\n');
            for (label, f) in rows {
                out.push_str(&format!("{label:<22}"));
                for col in &cols {
                    let text = match col {
                        Ok(c) => f(c),
                        Err(fail) => format!("ERR({})", fail.kind),
                    };
                    out.push_str(&format!("{text:>24}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Figure 1 data: per-kernel path lengths, normalised to the GCC 9.2 /
    /// AArch64 total for the same workload, as CSV
    /// (`workload,compiler,isa,kernel,instructions,normalised`). Failed
    /// cells are not dropped: each contributes one placeholder row with
    /// `ERR(<kind>)` in the kernel column and zeroed measurements, so a
    /// figure built from a partial matrix shows *where* data is missing.
    pub fn fig1_csv(&self) -> String {
        // With the fusion axis armed, two extra columns carry the
        // macro-op-fused per-kernel counts; without it the CSV is
        // byte-identical to the pre-fusion shape.
        let fused = self.has_fused();
        let mut out = String::from("workload,compiler,isa,kernel,instructions,normalised");
        if fused {
            out.push_str(",effective,effective_normalised");
        }
        out.push('\n');
        for w in self.workloads() {
            let base = self
                .get(&w, "gcc-9.2", "AArch64")
                .map(|c| c.path_length)
                .unwrap_or(1)
                .max(1) as f64;
            for c in self.cells.iter().filter(|c| c.workload == w) {
                for (kernel, count) in &c.kernels {
                    out.push_str(&format!(
                        "{},{},{},{},{},{:.6}",
                        c.workload,
                        c.compiler,
                        c.isa,
                        kernel,
                        count,
                        *count as f64 / base
                    ));
                    if fused {
                        let eff = c
                            .fused
                            .as_ref()
                            .and_then(|f| {
                                f.effective_kernels
                                    .iter()
                                    .find(|(k, _)| k == kernel)
                                    .map(|(_, n)| *n)
                            })
                            .unwrap_or(*count);
                        out.push_str(&format!(",{},{:.6}", eff, eff as f64 / base));
                    }
                    out.push('\n');
                }
            }
            for f in self.failures.iter().filter(|f| f.workload == w) {
                out.push_str(&format!(
                    "{},{},{},ERR({}),0,0.000000{}\n",
                    f.workload,
                    f.compiler,
                    f.isa,
                    f.kind,
                    if fused { ",0,0.000000" } else { "" }
                ));
            }
        }
        out
    }

    /// Figure 2 data: mean ILP per window size, GCC 12.2 binaries, as CSV
    /// (`workload,isa,window,mean_cp,mean_ilp`). Failed GCC 12.2 cells
    /// emit one `ERR(<kind>)` placeholder row (zeroed measurements)
    /// instead of vanishing from the figure.
    pub fn fig2_csv(&self) -> String {
        let mut out = String::from("workload,isa,window,mean_cp,mean_ilp\n");
        for c in self.cells.iter().filter(|c| c.compiler == "gcc-12.2") {
            for (size, mean_cp, mean_ilp) in &c.windows {
                out.push_str(&format!(
                    "{},{},{},{:.3},{:.3}\n",
                    c.workload, c.isa, size, mean_cp, mean_ilp
                ));
            }
        }
        for f in self.failures.iter().filter(|f| f.compiler == "gcc-12.2") {
            out.push_str(&format!(
                "{},{},ERR({}),0.000,0.000\n",
                f.workload, f.isa, f.kind
            ));
        }
        out
    }

    /// The artifact's `basicCPResult.txt` / `scaledCPResult.txt`: critical
    /// path and ILP per benchmark, one line per cell.
    pub fn cp_result_txt(&self, scaled: bool) -> String {
        let mut out = String::new();
        for c in &self.cells {
            let (cp, ilp) = if scaled {
                (c.scaled_cp, c.scaled_ilp())
            } else {
                (c.critical_path, c.ilp())
            };
            out.push_str(&format!(
                "{} {} {}: pathLength={} CP={} ILP={:.1}\n",
                c.workload, c.compiler, c.isa, c.path_length, cp, ilp
            ));
        }
        out
    }

    /// The artifact's `windowAverages.txt`: one comma-separated list of
    /// mean window-CP lengths per benchmark (ascending window size),
    /// GCC 12.2 binaries.
    pub fn window_averages_txt(&self) -> String {
        let mut out = String::new();
        for c in self.cells.iter().filter(|c| c.compiler == "gcc-12.2") {
            let means: Vec<String> = c
                .windows
                .iter()
                .map(|(_, cp, _)| format!("{cp:.3}"))
                .collect();
            out.push_str(&format!("{} {}: {}\n", c.workload, c.isa, means.join(",")));
        }
        out
    }

    /// A gnuplot script rendering Figure 2 (mean ILP vs window size,
    /// log-log, one line per workload/ISA) with inline data blocks — the
    /// artifact's `lineGraph.pdf` equivalent: `gnuplot results/fig2.gnuplot`.
    pub fn fig2_gnuplot(&self) -> String {
        let mut out = String::from(concat!(
            "set terminal pdfcairo size 9,5\n",
            "set output 'fig2.pdf'\n",
            "set logscale x 2\n",
            "set logscale y\n",
            "set xlabel 'window size'\n",
            "set ylabel 'mean ILP'\n",
            "set title 'Mean ILP per window (GCC 12.2)'\n",
            "set key outside\n",
        ));
        let cells: Vec<&ExperimentCell> = self
            .cells
            .iter()
            .filter(|c| c.compiler == "gcc-12.2")
            .collect();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("$data{i} << EOD\n"));
            for (size, _, ilp) in &c.windows {
                out.push_str(&format!("{size} {ilp:.4}\n"));
            }
            out.push_str("EOD\n");
        }
        out.push_str("plot ");
        let plots: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let dash = if c.isa == "RISC-V" { 2 } else { 1 };
                format!(
                    "$data{i} using 1:2 with linespoints dashtype {dash} title '{} {}'",
                    c.workload, c.isa
                )
            })
            .collect();
        out.push_str(&plots.join(", \\\n     "));
        out.push('\n');
        out
    }

    /// Serialise the whole matrix as JSON (the artifact's `results/` role).
    /// Tuples become arrays (`kernels: [["copy", 648], ...]`), matching the
    /// shape of the checked-in `results/matrix.json`. Failed cells are
    /// serialized under `"failures"` so a partial run is a first-class
    /// artifact.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(ExperimentCell::to_json_value)
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(CellFailure::to_json_value)
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    /// Parse a matrix back from JSON. `"failures"` is optional, so
    /// matrices written before the fault-tolerance layer still load.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let j = Json::parse(s)?;
        let cells = j
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("matrix: missing \"cells\" array")?;
        let failures = match j.get("failures").and_then(Json::as_arr) {
            Some(arr) => arr
                .iter()
                .map(CellFailure::from_json_value)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        Ok(ResultMatrix {
            cells: cells
                .iter()
                .map(ExperimentCell::from_json_value)
                .collect::<Result<_, _>>()?,
            failures,
        })
    }
}

impl CellFailure {
    /// Serialize one failure record (the shape embedded in
    /// [`ResultMatrix::to_json`] and in journal records).
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("compiler", Json::Str(self.compiler.clone())),
            ("isa", Json::Str(self.isa.clone())),
            ("kind", Json::Str(self.kind.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("retries", Json::Num(self.retries as f64)),
        ])
    }

    /// Parse one failure record back from its JSON shape.
    pub fn from_json_value(j: &Json) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("failure: missing string field {key:?}"))
        };
        Ok(CellFailure {
            workload: text("workload")?,
            compiler: text("compiler")?,
            isa: text("isa")?,
            kind: text("kind")?,
            detail: text("detail")?,
            retries: j.get("retries").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

impl ExperimentCell {
    /// Serialize one measured cell (the shape embedded in
    /// [`ResultMatrix::to_json`] and in journal records).
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("workload", Json::Str(self.workload.clone())),
            ("compiler", Json::Str(self.compiler.clone())),
            ("isa", Json::Str(self.isa.clone())),
            ("path_length", Json::Num(self.path_length as f64)),
            ("critical_path", Json::Num(self.critical_path as f64)),
            ("scaled_cp", Json::Num(self.scaled_cp as f64)),
            (
                "kernels",
                Json::Arr(
                    self.kernels
                        .iter()
                        .map(|(name, n)| {
                            Json::Arr(vec![Json::Str(name.clone()), Json::Num(*n as f64)])
                        })
                        .collect(),
                ),
            ),
            (
                "windows",
                Json::Arr(
                    self.windows
                        .iter()
                        .map(|&(size, cp, ilp)| {
                            Json::Arr(vec![Json::Num(size as f64), Json::Num(cp), Json::Num(ilp)])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(f) = &self.fused {
            fields.push(("fused", f.to_json_value()));
        }
        Json::obj(fields)
    }

    /// Parse one measured cell back from its JSON shape.
    pub fn from_json_value(j: &Json) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell: missing string field {key:?}"))
        };
        let int = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell: missing integer field {key:?}"))
        };
        let kernels = j
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("cell: missing \"kernels\"")?
            .iter()
            .map(|pair| {
                let a = pair.as_arr().filter(|a| a.len() == 2)?;
                Some((a[0].as_str()?.to_string(), a[1].as_u64()?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("cell: malformed \"kernels\" entry")?;
        let windows = j
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or("cell: missing \"windows\"")?
            .iter()
            .map(|triple| {
                let a = triple.as_arr().filter(|a| a.len() == 3)?;
                Some((a[0].as_u64()? as usize, a[1].as_f64()?, a[2].as_f64()?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("cell: malformed \"windows\" entry")?;
        // Optional: only fusion-armed cells carry it, and matrices written
        // before the fusion axis existed parse unchanged.
        let fused = match j.get("fused") {
            Some(f) => Some(FusedCell::from_json_value(f)?),
            None => None,
        };
        Ok(ExperimentCell {
            workload: text("workload")?,
            compiler: text("compiler")?,
            isa: text("isa")?,
            path_length: int("path_length")?,
            critical_path: int("critical_path")?,
            scaled_cp: int("scaled_cp")?,
            kernels,
            windows,
            fused,
        })
    }
}

impl FusedCell {
    /// Serialize the fusion measurements (the `"fused"` object inside a
    /// cell's JSON).
    pub fn to_json_value(&self) -> Json {
        let pairs = |v: &[(String, u64)]| {
            Json::Arr(
                v.iter()
                    .map(|(name, n)| Json::Arr(vec![Json::Str(name.clone()), Json::Num(*n as f64)]))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("fused_pairs", Json::Num(self.fused_pairs as f64)),
            (
                "effective_path_length",
                Json::Num(self.effective_path_length as f64),
            ),
            (
                "fused_critical_path",
                Json::Num(self.fused_critical_path as f64),
            ),
            ("fused_scaled_cp", Json::Num(self.fused_scaled_cp as f64)),
            ("pair_counts", pairs(&self.pair_counts)),
            ("effective_kernels", pairs(&self.effective_kernels)),
        ])
    }

    /// Parse the fusion measurements back from their JSON shape.
    pub fn from_json_value(j: &Json) -> Result<Self, String> {
        let int = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fused: missing integer field {key:?}"))
        };
        let pairs = |key: &str| -> Result<Vec<(String, u64)>, String> {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("fused: missing {key:?}"))?
                .iter()
                .map(|pair| {
                    let a = pair.as_arr().filter(|a| a.len() == 2)?;
                    Some((a[0].as_str()?.to_string(), a[1].as_u64()?))
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("fused: malformed {key:?} entry"))
        };
        Ok(FusedCell {
            fused_pairs: int("fused_pairs")?,
            effective_path_length: int("effective_path_length")?,
            fused_critical_path: int("fused_critical_path")?,
            fused_scaled_cp: int("fused_scaled_cp")?,
            pair_counts: pairs("pair_counts")?,
            effective_kernels: pairs("effective_kernels")?,
        })
    }
}

/// Thousands-separated integer, like the paper's tables.
pub fn fmt_u64(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

fn fmt_ms(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(w: &str, compiler: &str, isa: &str, pl: u64, cp: u64) -> ExperimentCell {
        ExperimentCell {
            workload: w.into(),
            compiler: compiler.into(),
            isa: isa.into(),
            path_length: pl,
            critical_path: cp,
            scaled_cp: cp * 6,
            kernels: vec![("k1".into(), pl / 2), ("k2".into(), pl / 2)],
            windows: vec![(4, 2.0, 2.0), (16, 4.0, 4.0)],
            fused: None,
        }
    }

    fn fused_cell(pl: u64) -> FusedCell {
        FusedCell {
            fused_pairs: pl / 10,
            effective_path_length: pl - pl / 10,
            fused_critical_path: 90,
            fused_scaled_cp: 540,
            pair_counts: vec![("slli+add".into(), pl / 20), ("cmp+branch".into(), pl / 20)],
            effective_kernels: vec![
                ("k1".into(), pl / 2 - pl / 20),
                ("k2".into(), pl / 2 - pl / 20),
            ],
        }
    }

    fn fused_sample() -> ResultMatrix {
        let mut m = sample();
        for c in &mut m.cells {
            c.fused = Some(fused_cell(c.path_length));
        }
        m
    }

    fn sample() -> ResultMatrix {
        ResultMatrix {
            cells: vec![
                cell("STREAM", "gcc-9.2", "AArch64", 1000, 100),
                cell("STREAM", "gcc-9.2", "RISC-V", 1100, 100),
                cell("STREAM", "gcc-12.2", "AArch64", 900, 100),
                cell("STREAM", "gcc-12.2", "RISC-V", 1100, 100),
            ],
            failures: Vec::new(),
        }
    }

    fn failure(w: &str, compiler: &str, isa: &str, kind: &str) -> CellFailure {
        CellFailure {
            workload: w.into(),
            compiler: compiler.into(),
            isa: isa.into(),
            kind: kind.into(),
            detail: format!("injected {kind}"),
            retries: 1,
        }
    }

    fn degraded() -> ResultMatrix {
        let mut m = sample();
        m.cells
            .retain(|c| !(c.compiler == "gcc-12.2" && c.isa == "RISC-V"));
        m.failures
            .push(failure("STREAM", "gcc-12.2", "RISC-V", "timeout"));
        // A workload where *every* cell failed must still appear.
        m.failures
            .push(failure("LBM", "gcc-9.2", "AArch64", "panic"));
        m
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(fmt_u64(1000), "1,000");
        assert_eq!(fmt_u64(3_350_107_615), "3,350,107,615");
    }

    #[test]
    fn table1_contains_all_cells() {
        let t = sample().table1();
        assert!(t.contains("STREAM"));
        assert!(t.contains("gcc-9.2/AArch64"));
        assert!(t.contains("1,000"));
        assert!(t.contains("Path Length"));
    }

    #[test]
    fn fig1_normalises_to_gcc92_aarch64() {
        let csv = sample().fig1_csv();
        // gcc-12.2/AArch64 kernel k1: 450/1000 = 0.45
        assert!(
            csv.contains("STREAM,gcc-12.2,AArch64,k1,450,0.450000"),
            "{csv}"
        );
    }

    #[test]
    fn fig2_only_gcc122() {
        let csv = sample().fig2_csv();
        assert!(!csv.contains("gcc-9.2"));
        assert!(csv.lines().count() > 1);
    }

    #[test]
    fn fig1_emits_err_rows_for_failures() {
        let m = degraded();
        let csv = m.fig1_csv();
        assert!(
            csv.contains("STREAM,gcc-12.2,RISC-V,ERR(timeout),0,0.000000"),
            "failed cell keeps a placeholder row:\n{csv}"
        );
        assert!(
            csv.contains("LBM,gcc-9.2,AArch64,ERR(panic),0,0.000000"),
            "all-failed workload still appears:\n{csv}"
        );
        assert!(
            csv.contains("STREAM,gcc-9.2,AArch64,k1,500,0.500000"),
            "healthy rows intact"
        );
        // Every row has the full 6-column shape.
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 6, "malformed row: {line}");
        }
    }

    #[test]
    fn fig2_emits_err_rows_for_gcc122_failures() {
        let m = degraded();
        let csv = m.fig2_csv();
        assert!(
            csv.contains("STREAM,RISC-V,ERR(timeout),0.000,0.000"),
            "{csv}"
        );
        assert!(
            !csv.contains("ERR(panic)"),
            "gcc-9.2 failures stay out of figure 2:\n{csv}"
        );
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 5, "malformed row: {line}");
        }
    }

    #[test]
    fn cp_result_txt_format() {
        let basic = sample().cp_result_txt(false);
        assert!(basic.contains("STREAM gcc-9.2 AArch64: pathLength=1000 CP=100 ILP=10.0"));
        let scaled = sample().cp_result_txt(true);
        assert!(scaled.contains("CP=600"));
    }

    #[test]
    fn window_averages_format() {
        let t = sample().window_averages_txt();
        assert!(t.contains("STREAM AArch64: 2.000,4.000"));
        assert!(!t.contains("gcc"));
    }

    #[test]
    fn fig2_gnuplot_structure() {
        let g = sample().fig2_gnuplot();
        assert!(g.contains("$data0 << EOD"));
        assert!(g.contains("plot "));
        assert!(g.contains("STREAM RISC-V"));
        assert!(!g.contains("gcc-9.2"), "figure 2 is GCC 12.2 only");
        // Two gcc-12.2 cells -> two data blocks.
        assert_eq!(g.matches("EOD").count(), 4, "two << EOD + two terminators");
    }

    #[test]
    fn json_round_trip() {
        let m = sample();
        let j = m.to_json();
        let back = ResultMatrix::from_json(&j).unwrap();
        assert_eq!(back.cells.len(), m.cells.len());
        assert_eq!(back.cells[0].path_length, 1000);
        assert!(back.is_complete());
    }

    #[test]
    fn partial_matrix_renders_err_cells() {
        let m = degraded();
        let t1 = m.table1();
        assert!(t1.contains("ERR(timeout)"), "{t1}");
        assert!(
            t1.contains("gcc-12.2/RISC-V"),
            "failed column keeps its header:\n{t1}"
        );
        assert!(t1.contains("1,000"), "healthy cells still render");
        assert!(
            t1.contains("== LBM =="),
            "all-failed workload still has a section:\n{t1}"
        );
        assert!(t1.contains("ERR(panic)"), "{t1}");
        assert!(!m.is_complete());
        assert_eq!(
            m.get_failure("STREAM", "gcc-12.2", "RISC-V").unwrap().kind,
            "timeout"
        );
        let summary = m.failure_summary();
        assert!(
            summary.contains("ERR(timeout) STREAM gcc-12.2 RISC-V"),
            "{summary}"
        );
    }

    #[test]
    fn failures_round_trip_through_json() {
        let m = degraded();
        let back = ResultMatrix::from_json(&m.to_json()).unwrap();
        assert_eq!(back.failures.len(), 2);
        let f = back.get_failure("STREAM", "gcc-12.2", "RISC-V").unwrap();
        assert_eq!(f.kind, "timeout");
        assert_eq!(f.detail, "injected timeout");
        assert_eq!(f.retries, 1);
        assert_eq!(back.cells.len(), 3);
    }

    #[test]
    fn pre_fault_tolerance_json_still_parses() {
        // matrix.json files written before the failures field existed.
        let legacy = sample().to_json().replace(",\n  \"failures\": []", "");
        assert!(!legacy.contains("failures"));
        let back = ResultMatrix::from_json(&legacy).unwrap();
        assert_eq!(back.cells.len(), 4);
        assert!(back.failures.is_empty());
    }

    #[test]
    fn ilp_and_runtime() {
        let c = cell("X", "gcc-12.2", "RISC-V", 1000, 100);
        assert_eq!(c.ilp(), 10.0);
        assert!((c.runtime_ms() - 100.0 / 2e6).abs() < 1e-12);
        assert_eq!(c.scaled_ilp(), 1000.0 / 600.0);
    }

    #[test]
    fn unfused_json_carries_no_fused_field() {
        // The byte-identity contract: a matrix without fusion data must
        // serialize exactly as it did before the fusion axis existed.
        let j = sample().to_json();
        assert!(!j.contains("fused"), "{j}");
    }

    #[test]
    fn fused_cells_round_trip_through_json() {
        let m = fused_sample();
        let back = ResultMatrix::from_json(&m.to_json()).unwrap();
        let f = back.cells[0].fused.as_ref().expect("fused data survives");
        assert_eq!(*f, fused_cell(1000));
        assert_eq!(back.cells, m.cells);
    }

    #[test]
    fn fusion_table_shows_effective_columns() {
        let t = fused_sample().fusion_table();
        assert!(t.contains("Effective PL"), "{t}");
        assert!(t.contains("900"), "effective PL for the 1000-cell: {t}");
        assert!(t.contains("10.0%"), "reduction renders: {t}");
        // A matrix without fusion data renders placeholders, not garbage.
        let bare = sample().fusion_table();
        assert!(bare.contains('-'), "{bare}");
    }

    #[test]
    fn fusion_csv_rows_per_pair_kind() {
        let csv = fused_sample().fusion_csv();
        assert!(csv.starts_with("workload,compiler,isa,pair,count,per_kilo_inst\n"));
        assert!(
            csv.contains("STREAM,gcc-12.2,RISC-V,slli+add,55,50.000"),
            "{csv}"
        );
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 6, "malformed row: {line}");
        }
        // No fusion data -> header only.
        assert_eq!(sample().fusion_csv().lines().count(), 1);
    }

    #[test]
    fn fig1_gains_effective_columns_only_when_fused() {
        let bare = sample().fig1_csv();
        assert!(bare.starts_with("workload,compiler,isa,kernel,instructions,normalised\n"));
        for line in bare.lines() {
            assert_eq!(
                line.split(',').count(),
                6,
                "unfused shape unchanged: {line}"
            );
        }
        let csv = fused_sample().fig1_csv();
        assert!(
            csv.starts_with(
                "workload,compiler,isa,kernel,instructions,normalised,effective,effective_normalised\n"
            ),
            "{csv}"
        );
        for line in csv.lines() {
            assert_eq!(
                line.split(',').count(),
                8,
                "fused rows carry 8 columns: {line}"
            );
        }
        // k1 of the gcc-12.2/AArch64 cell: 450 raw, 450 - 45 effective.
        assert!(
            csv.contains("STREAM,gcc-12.2,AArch64,k1,450,0.450000,405,0.405000"),
            "{csv}"
        );
    }
}
