//! Self-contained run reports: render a simulation run — manifest,
//! per-stage timings, [`booters_obs`] metric totals, every table/figure
//! artifact, and the `BENCH_*.json` benchmark trajectory — as one
//! offline HTML page plus a parallel Markdown digest.
//!
//! The HTML is fully inline (CSS, JS, SVG sparklines): no network
//! fetches, no external assets, so `out/report.html` can be attached to
//! a ticket or mailed around and still render. Tables built from CSV
//! artifacts are interactive in the spirit of datavzrd's portable
//! reports: every column is type-classified (integer, float, string or
//! empty) so clicks sort numerically or lexicographically as
//! appropriate, numeric columns carry an inline header sparkline of
//! their values, and long tables are paged — each row is stamped with
//! its page (50 rows per page) and a small inline pager walks the pages
//! without reloading.
//!
//! Rendering is pure string → string: `repro report`
//! (`crates/bench/src/bin/repro.rs`) gathers the inputs, this module
//! formats them, and nothing here touches the filesystem, which
//! keeps every function unit-testable offline.

use booters_obs::Snapshot;
use std::fmt::Write as _;

/// Identity of one run: what was simulated, with which knobs.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// RNG seed shared by every repro binary.
    pub seed: u64,
    /// Volume scale relative to the paper's absolute attack counts.
    pub scale: f64,
    /// Environment knobs as `(name, value-or-"(default)")` pairs.
    pub env: Vec<(String, String)>,
    /// Workspace crates as `(name, version)` pairs.
    pub crates: Vec<(String, String)>,
    /// Total wall-clock of the run in nanoseconds.
    pub wall_ns: u64,
}

/// One rendered table/figure artifact embedded in the report.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Artifact file name (e.g. `table1.txt`, `fig1_timeline.csv`).
    pub name: String,
    /// Short human caption shown next to the name.
    pub caption: String,
    /// Full artifact body.
    pub body: String,
}

impl Artifact {
    /// CSV artifacts are rendered as sortable tables; everything else
    /// as preformatted text.
    fn is_csv(&self) -> bool {
        self.name.ends_with(".csv")
    }
}

/// One benchmark record parsed from a `BENCH_*.json` line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Source file the line came from (e.g. `BENCH_glm.json`).
    pub file: String,
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Per-iteration median, nanoseconds.
    pub median_ns: u64,
    /// Median absolute deviation, nanoseconds.
    pub mad_ns: u64,
    /// Number of timed samples.
    pub samples: u64,
}

/// Pre-rendered cross-scenario comparison block (see
/// `crate::scenarios`): the caller runs the scenario suite and hands
/// the renderers its deterministic text outputs plus the weekly
/// trajectories for sparkline figures.
#[derive(Debug, Clone)]
pub struct ScenarioSection {
    /// Per-scenario summary table (Table-1-style deltas), CSV.
    pub summary_csv: String,
    /// Side-by-side coefficient table (scenario × shock window), CSV.
    pub coefficients_csv: String,
    /// Named weekly attack trajectories, baseline first.
    pub trajectories: Vec<(String, Vec<f64>)>,
}

/// Everything the renderers need, gathered by the caller.
#[derive(Debug, Clone)]
pub struct ReportInput {
    /// Run identity block.
    pub manifest: RunManifest,
    /// Metrics snapshot taken after the pipeline finished.
    pub snapshot: Snapshot,
    /// Rendered artifacts, in display order.
    pub artifacts: Vec<Artifact>,
    /// Cross-scenario comparison block, when a scenario suite ran.
    pub scenarios: Option<ScenarioSection>,
    /// Benchmark trajectory, in file order then line order.
    pub bench: Vec<BenchRecord>,
}

// ---------------------------------------------------------------------
// Paged-table machinery (datavzrd-style row addressing + column types)
// ---------------------------------------------------------------------

/// Rows per page in rendered CSV tables.
const DEFAULT_PAGE_SIZE: usize = 50;

/// Stable address of one data row in a paged table: which page it lands
/// on and its offset within that page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowAddress {
    /// Zero-based page index.
    page: usize,
    /// Zero-based row offset within the page.
    local: usize,
}

/// Maps absolute row indices to [`RowAddress`]es for a fixed page size
/// — the single source of truth for how a table is cut into pages, so
/// the server-side row stamps and the page count always agree.
#[derive(Debug, Clone, Copy)]
struct RowAddressFactory {
    page_size: usize,
}

impl RowAddressFactory {
    /// A factory cutting pages of `page_size` rows (clamped to ≥ 1).
    fn new(page_size: usize) -> RowAddressFactory {
        RowAddressFactory {
            page_size: page_size.max(1),
        }
    }

    /// The (clamped) page size.
    fn page_size(&self) -> usize {
        self.page_size
    }

    /// Address of absolute row `row`.
    fn get(&self, row: usize) -> RowAddress {
        RowAddress {
            page: row / self.page_size,
            local: row % self.page_size,
        }
    }

}

/// Inferred type of one CSV column, driving sort order and plotting:
/// numeric columns sort numerically and get a header sparkline; string
/// columns sort lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColumnType {
    /// Every cell is empty.
    None,
    /// Every non-empty cell parses as a (signed) integer.
    Integer,
    /// Every non-empty cell parses as a float (and not all as integers).
    Float,
    /// Anything else.
    String,
}

impl ColumnType {
    /// The `data-type` attribute value for HTML rendering.
    fn attr(self) -> &'static str {
        match self {
            ColumnType::None => "none",
            ColumnType::Integer => "integer",
            ColumnType::Float => "float",
            ColumnType::String => "string",
        }
    }

    /// Numeric columns get numeric sort + a header plot.
    fn is_numeric(self) -> bool {
        matches!(self, ColumnType::Integer | ColumnType::Float)
    }
}

/// Classify one column from its data cells (header excluded).
fn classify_column<'a>(cells: impl Iterator<Item = &'a str>) -> ColumnType {
    let mut seen = false;
    let mut all_int = true;
    let mut all_float = true;
    for cell in cells {
        let cell = cell.trim();
        if cell.is_empty() {
            continue;
        }
        seen = true;
        if cell.parse::<i64>().is_err() {
            all_int = false;
        }
        if cell.parse::<f64>().is_err() {
            all_float = false;
            break;
        }
    }
    match (seen, all_int, all_float) {
        (false, _, _) => ColumnType::None,
        (true, true, _) => ColumnType::Integer,
        (true, false, true) => ColumnType::Float,
        (true, false, false) => ColumnType::String,
    }
}

/// Classify every column of a CSV body (first line = header). Ragged
/// rows contribute only the cells they have.
fn classify_table(body: &str) -> Vec<ColumnType> {
    let mut lines = body.lines();
    let n_cols = lines.next().map_or(0, |h| csv_fields(h).len());
    let rows: Vec<Vec<&str>> = lines
        .filter(|l| !l.is_empty())
        .map(csv_fields)
        .collect();
    (0..n_cols)
        .map(|c| classify_column(rows.iter().filter_map(|r| r.get(c).copied())))
        .collect()
}

// ---------------------------------------------------------------------
// BENCH_*.json line parsing (hand-rolled: no serde in-tree)
// ---------------------------------------------------------------------

/// Extract a string field from one flat JSON object line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract an unsigned integer field from one flat JSON object line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the JSON-lines body of one `BENCH_*.json` file. Lines missing
/// the required fields are skipped rather than failing the report.
pub fn parse_bench_lines(file: &str, text: &str) -> Vec<BenchRecord> {
    text.lines()
        .filter_map(|line| {
            Some(BenchRecord {
                file: file.to_string(),
                name: json_str(line, "name")?,
                median_ns: json_u64(line, "median_ns")?,
                mad_ns: json_u64(line, "mad_ns").unwrap_or(0),
                samples: json_u64(line, "samples").unwrap_or(0),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Shared formatting helpers
// ---------------------------------------------------------------------

/// Escape the five HTML-significant characters.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Human-format a nanosecond duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Split one CSV line. The in-tree artifact CSVs never quote fields, so
/// a plain comma split is exact.
fn csv_fields(line: &str) -> Vec<&str> {
    line.split(',').collect()
}

/// Inline SVG sparkline over `values` (min–max normalised polyline),
/// sized `w`×`h` CSS pixels.
fn sparkline_svg_sized(values: &[f64], w: f64, h: f64) -> String {
    const PAD: f64 = 2.0;
    if values.len() < 2 {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    let span = if hi > lo { hi - lo } else { 1.0 };
    let step = (w - 2.0 * PAD) / (values.len() - 1) as f64;
    let mut pts = String::new();
    for (i, &v) in values.iter().enumerate() {
        let x = PAD + i as f64 * step;
        let y = h - PAD - (v - lo) / span * (h - 2.0 * PAD);
        let _ = write!(pts, "{x:.1},{y:.1} ");
    }
    format!(
        "<svg class=\"spark\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
         role=\"img\" aria-label=\"trend\"><polyline points=\"{}\" fill=\"none\" \
         stroke=\"#2a6\" stroke-width=\"1.5\"/></svg>",
        pts.trim_end()
    )
}

/// Inline SVG sparkline over integer `values` (bench trajectories).
fn sparkline_svg(values: &[u64]) -> String {
    let vals: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sparkline_svg_sized(&vals, 160.0, 28.0)
}

// ---------------------------------------------------------------------
// HTML rendering
// ---------------------------------------------------------------------

const CSS: &str = "\
body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:70em;color:#222}\
h1{font-size:1.5em}h2{font-size:1.15em;border-bottom:1px solid #ddd;padding-bottom:.2em;margin-top:2em}\
table{border-collapse:collapse;margin:.6em 0}\
th,td{border:1px solid #ccc;padding:.25em .6em;text-align:left;font-variant-numeric:tabular-nums}\
th{background:#f3f3f3;cursor:default}\
table.sortable th{cursor:pointer}table.sortable th:hover{background:#e7e7e7}\
pre{background:#f7f7f7;border:1px solid #ddd;padding:.8em;overflow-x:auto;font-size:12px}\
details{margin:.8em 0}summary{cursor:pointer;font-weight:600}\
summary small{font-weight:400;color:#666}\
.spark{vertical-align:middle}\
th .spark{display:block;margin-top:.15em}\
.pager{margin:.4em 0}\
.pager button{font:inherit;padding:.1em .6em;margin:0 .2em;cursor:pointer}\
.pager button:disabled{cursor:default;opacity:.4}\
.meta{color:#666;font-size:.9em}";

/// Click-to-sort for every `table.sortable`: the compare is driven by
/// the server-side `data-type` column classification when present
/// (numeric for integer/float columns, lexicographic for string),
/// falling back to a parse probe; a sort restamps pagination.
const SORT_JS: &str = "\
document.querySelectorAll('table.sortable').forEach(function(t){\
var ths=t.querySelectorAll('th');\
ths.forEach(function(th,i){th.addEventListener('click',function(){\
var tb=t.tBodies[0],rows=Array.from(tb.rows);\
var dir=th.dataset.dir==='a'?'d':'a';ths.forEach(function(h){delete h.dataset.dir});th.dataset.dir=dir;\
var ty=th.dataset.type||'';\
rows.sort(function(r1,r2){\
var a=r1.cells[i].textContent.trim(),b=r2.cells[i].textContent.trim();\
var c;\
if(ty==='integer'||ty==='float'){c=(parseFloat(a)||0)-(parseFloat(b)||0);}\
else if(ty==='string'||ty==='none'){c=a.localeCompare(b);}\
else{var na=parseFloat(a),nb=parseFloat(b);c=(!isNaN(na)&&!isNaN(nb))?na-nb:a.localeCompare(b);}\
return dir==='a'?c:-c;});\
rows.forEach(function(r){tb.appendChild(r)});\
if(t.__repage)t.__repage();});});});";

/// Pager for every `table.paged`: pages of `data-page-size` rows, a
/// prev/next nav injected above the table, and a `__repage` hook so
/// sorting re-cuts the pages in the new row order. Rows arrive
/// pre-stamped (server-side row addressing) so page one renders
/// correctly even before — or without — the script running.
const PAGER_JS: &str = "\
document.querySelectorAll('table.paged').forEach(function(t){\
var ps=parseInt(t.dataset.pageSize,10)||50;\
var tb=t.tBodies[0];\
if(tb.rows.length<=ps){t.__repage=function(){};return;}\
var page=0,pages=Math.ceil(tb.rows.length/ps);\
var nav=document.createElement('p');nav.className='pager';\
var prev=document.createElement('button');prev.type='button';prev.textContent='\\u2039 prev';\
var next=document.createElement('button');next.type='button';next.textContent='next \\u203a';\
var lab=document.createElement('span');\
function show(){Array.from(tb.rows).forEach(function(r,i){\
r.style.display=Math.floor(i/ps)===page?'':'none';});\
lab.textContent=' page '+(page+1)+' of '+pages+' ';\
prev.disabled=page===0;next.disabled=page===pages-1;}\
prev.addEventListener('click',function(){if(page>0){page--;show();}});\
next.addEventListener('click',function(){if(page<pages-1){page++;show();}});\
nav.appendChild(prev);nav.appendChild(lab);nav.appendChild(next);\
t.parentNode.insertBefore(nav,t);\
t.__repage=show;show();});";

/// Render a CSV body as a sortable, paged HTML table (first line =
/// header). Columns are type-classified to drive the sort compare and
/// to put a sparkline of each numeric column in its header cell; data
/// rows are stamped with their page address so pages after the first
/// start hidden (the inline pager walks them).
fn csv_to_html_table(body: &str, pager: &RowAddressFactory) -> String {
    let types = classify_table(body);
    let mut lines = body.lines();
    let header = lines.next();
    let data: Vec<&str> = lines.filter(|l| !l.is_empty()).collect();
    let mut out = format!(
        "<table class=\"sortable paged\" data-page-size=\"{}\"><thead><tr>",
        pager.page_size()
    );
    if let Some(header) = header {
        for (c, f) in csv_fields(header).into_iter().enumerate() {
            let ty = types.get(c).copied().unwrap_or(ColumnType::None);
            let _ = write!(out, "<th data-type=\"{}\">{}", ty.attr(), esc(f));
            if ty.is_numeric() {
                let vals: Vec<f64> = data
                    .iter()
                    .filter_map(|l| csv_fields(l).get(c).and_then(|v| v.trim().parse().ok()))
                    .collect();
                out.push_str(&sparkline_svg_sized(&vals, 80.0, 16.0));
            }
            out.push_str("</th>");
        }
    }
    out.push_str("</tr></thead><tbody>");
    for (i, line) in data.iter().enumerate() {
        let addr = pager.get(i);
        let _ = write!(out, "<tr data-page=\"{}\"", addr.page);
        if addr.page > 0 {
            out.push_str(" style=\"display:none\"");
        }
        out.push('>');
        for f in csv_fields(line) {
            let _ = write!(out, "<td>{}</td>", esc(f));
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table>");
    out
}

/// Render the full self-contained HTML report.
pub fn render_html(input: &ReportInput) -> String {
    let m = &input.manifest;
    let mut h = String::with_capacity(64 * 1024);
    h.push_str("<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">");
    h.push_str("<title>booting-the-booters run report</title>");
    let _ = write!(h, "<style>{CSS}</style></head><body>");
    h.push_str("<h1>booting-the-booters &mdash; run report</h1>");
    let _ = write!(
        h,
        "<p class=\"meta\">seed 0x{:X} &middot; scale {} &middot; wall {}</p>",
        m.seed,
        m.scale,
        fmt_ns(m.wall_ns)
    );

    // Manifest ---------------------------------------------------------
    h.push_str("<h2>Manifest</h2><table><tbody>");
    let _ = write!(h, "<tr><th>seed</th><td>0x{:X}</td></tr>", m.seed);
    let _ = write!(h, "<tr><th>scale</th><td>{}</td></tr>", m.scale);
    for (k, v) in &m.env {
        let _ = write!(h, "<tr><th>{}</th><td>{}</td></tr>", esc(k), esc(v));
    }
    h.push_str("</tbody></table>");
    h.push_str("<table class=\"sortable\"><thead><tr><th>crate</th><th>version</th></tr></thead><tbody>");
    for (name, ver) in &m.crates {
        let _ = write!(h, "<tr><td>{}</td><td>{}</td></tr>", esc(name), esc(ver));
    }
    h.push_str("</tbody></table>");

    // Stage timings ----------------------------------------------------
    h.push_str("<h2>Stage timings</h2>");
    if input.snapshot.spans.is_empty() {
        h.push_str("<p class=\"meta\">no spans recorded (BOOTERS_OBS off)</p>");
    } else {
        h.push_str(
            "<table class=\"sortable\"><thead><tr><th>span</th><th>count</th>\
             <th>total</th><th>mean</th></tr></thead><tbody>",
        );
        for (path, stat) in &input.snapshot.spans {
            let mean = if stat.count > 0 { stat.total_ns / stat.count } else { 0 };
            let _ = write!(
                h,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(path),
                stat.count,
                fmt_ns(stat.total_ns),
                fmt_ns(mean)
            );
        }
        h.push_str("</tbody></table>");
    }

    // Metric totals ----------------------------------------------------
    h.push_str("<h2>Metric totals</h2>");
    if input.snapshot.counters.is_empty() && input.snapshot.gauges.is_empty() {
        h.push_str("<p class=\"meta\">no metrics recorded (BOOTERS_OBS off)</p>");
    } else {
        h.push_str(
            "<table class=\"sortable\"><thead><tr><th>metric</th><th>kind</th>\
             <th>value</th></tr></thead><tbody>",
        );
        for (name, v) in &input.snapshot.counters {
            let _ = write!(
                h,
                "<tr><td>{}</td><td>counter</td><td>{v}</td></tr>",
                esc(name)
            );
        }
        for (name, v) in &input.snapshot.gauges {
            let _ = write!(
                h,
                "<tr><td>{}</td><td>gauge (max)</td><td>{v}</td></tr>",
                esc(name)
            );
        }
        h.push_str("</tbody></table>");
    }

    // Artifacts --------------------------------------------------------
    h.push_str("<h2>Tables &amp; figures</h2>");
    let pager = RowAddressFactory::new(DEFAULT_PAGE_SIZE);
    for a in &input.artifacts {
        let _ = write!(
            h,
            "<details open><summary>{} <small>&mdash; {}</small></summary>",
            esc(&a.name),
            esc(&a.caption)
        );
        if a.is_csv() {
            h.push_str(&csv_to_html_table(&a.body, &pager));
        } else {
            let _ = write!(h, "<pre>{}</pre>", esc(&a.body));
        }
        h.push_str("</details>");
    }

    // Cross-scenario comparison ---------------------------------------
    if let Some(s) = &input.scenarios {
        h.push_str("<h2>Cross-scenario comparison</h2>");
        h.push_str(
            "<p class=\"meta\">each intervention programme re-simulated and refit \
             end-to-end; deltas are against the shockless baseline on the same \
             seed (see SCENARIOS.md)</p>",
        );
        h.push_str("<table class=\"sortable\"><thead><tr><th>scenario</th>\
             <th>weekly attacks</th></tr></thead><tbody>");
        for (name, vals) in &s.trajectories {
            let _ = write!(
                h,
                "<tr><td>{}</td><td>{}</td></tr>",
                esc(name),
                sparkline_svg_sized(vals, 240.0, 32.0)
            );
        }
        h.push_str("</tbody></table>");
        let _ = write!(
            h,
            "<details open><summary>scenario_summary.csv <small>&mdash; Table-1-style \
             deltas vs baseline</small></summary>{}</details>",
            csv_to_html_table(&s.summary_csv, &pager)
        );
        let _ = write!(
            h,
            "<details open><summary>scenario_coefficients.csv <small>&mdash; \
             side-by-side fitted shock-window coefficients</small></summary>{}</details>",
            csv_to_html_table(&s.coefficients_csv, &pager)
        );
    }

    // Bench trajectory -------------------------------------------------
    h.push_str("<h2>Benchmark trajectory</h2>");
    if input.bench.is_empty() {
        h.push_str("<p class=\"meta\">no BENCH_*.json files found</p>");
    } else {
        let mut files: Vec<&str> = input.bench.iter().map(|b| b.file.as_str()).collect();
        files.dedup();
        for file in files {
            let recs: Vec<&BenchRecord> =
                input.bench.iter().filter(|b| b.file == file).collect();
            let medians: Vec<u64> = recs.iter().map(|b| b.median_ns).collect();
            let _ = write!(
                h,
                "<details open><summary>{} <small>&mdash; {} records</small> {}</summary>",
                esc(file),
                recs.len(),
                sparkline_svg(&medians)
            );
            h.push_str(
                "<table class=\"sortable\"><thead><tr><th>benchmark</th>\
                 <th>median</th><th>mad</th><th>samples</th></tr></thead><tbody>",
            );
            for b in recs {
                let _ = write!(
                    h,
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    esc(&b.name),
                    fmt_ns(b.median_ns),
                    fmt_ns(b.mad_ns),
                    b.samples
                );
            }
            h.push_str("</tbody></table></details>");
        }
    }

    let _ = write!(h, "<script>{PAGER_JS}{SORT_JS}</script></body></html>");
    h
}

// ---------------------------------------------------------------------
// Markdown rendering
// ---------------------------------------------------------------------

/// Render the parallel Markdown digest (same sections as the HTML).
pub fn render_markdown(input: &ReportInput) -> String {
    let m = &input.manifest;
    let mut md = String::with_capacity(32 * 1024);
    md.push_str("# booting-the-booters — run report\n\n");
    let _ = writeln!(md, "- seed: `0x{:X}`", m.seed);
    let _ = writeln!(md, "- scale: {}", m.scale);
    let _ = writeln!(md, "- wall: {}", fmt_ns(m.wall_ns));
    for (k, v) in &m.env {
        let _ = writeln!(md, "- {k}: `{v}`");
    }
    md.push('\n');
    md.push_str("| crate | version |\n|---|---|\n");
    for (name, ver) in &m.crates {
        let _ = writeln!(md, "| {name} | {ver} |");
    }

    md.push_str("\n## Stage timings\n\n");
    if input.snapshot.spans.is_empty() {
        md.push_str("_no spans recorded (BOOTERS_OBS off)_\n");
    } else {
        md.push_str("| span | count | total | mean |\n|---|---|---|---|\n");
        for (path, stat) in &input.snapshot.spans {
            let mean = if stat.count > 0 { stat.total_ns / stat.count } else { 0 };
            let _ = writeln!(
                md,
                "| {path} | {} | {} | {} |",
                stat.count,
                fmt_ns(stat.total_ns),
                fmt_ns(mean)
            );
        }
    }

    md.push_str("\n## Metric totals\n\n");
    if input.snapshot.counters.is_empty() && input.snapshot.gauges.is_empty() {
        md.push_str("_no metrics recorded (BOOTERS_OBS off)_\n");
    } else {
        md.push_str("| metric | kind | value |\n|---|---|---|\n");
        for (name, v) in &input.snapshot.counters {
            let _ = writeln!(md, "| {name} | counter | {v} |");
        }
        for (name, v) in &input.snapshot.gauges {
            let _ = writeln!(md, "| {name} | gauge (max) | {v} |");
        }
    }

    md.push_str("\n## Tables & figures\n");
    for a in &input.artifacts {
        let _ = write!(md, "\n### {} — {}\n\n", a.name, a.caption);
        if a.is_csv() {
            let mut lines = a.body.lines();
            if let Some(header) = lines.next() {
                let fields = csv_fields(header);
                let _ = writeln!(md, "| {} |", fields.join(" | "));
                let _ = writeln!(md, "|{}", "---|".repeat(fields.len()));
                for line in lines.filter(|l| !l.is_empty()) {
                    let _ = writeln!(md, "| {} |", csv_fields(line).join(" | "));
                }
            }
        } else {
            md.push_str("```text\n");
            md.push_str(&a.body);
            if !a.body.ends_with('\n') {
                md.push('\n');
            }
            md.push_str("```\n");
        }
    }

    if let Some(s) = &input.scenarios {
        md.push_str("\n## Cross-scenario comparison\n");
        for csv in [&s.summary_csv, &s.coefficients_csv] {
            md.push('\n');
            let mut lines = csv.lines();
            if let Some(header) = lines.next() {
                let fields = csv_fields(header);
                let _ = writeln!(md, "| {} |", fields.join(" | "));
                let _ = writeln!(md, "|{}", "---|".repeat(fields.len()));
                for line in lines.filter(|l| !l.is_empty()) {
                    let _ = writeln!(md, "| {} |", csv_fields(line).join(" | "));
                }
            }
        }
    }

    md.push_str("\n## Benchmark trajectory\n\n");
    if input.bench.is_empty() {
        md.push_str("_no BENCH_*.json files found_\n");
    } else {
        md.push_str("| file | benchmark | median | mad | samples |\n|---|---|---|---|---|\n");
        for b in &input.bench {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} |",
                b.file,
                b.name,
                fmt_ns(b.median_ns),
                fmt_ns(b.mad_ns),
                b.samples
            );
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> ReportInput {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("glm.irls_fits".into(), 7);
        snapshot.gauges.insert("store.peak_spill_packets".into(), 42);
        snapshot.spans.insert(
            "simulate".into(),
            booters_obs::SpanStat {
                count: 1,
                total_ns: 2_500_000,
            },
        );
        ReportInput {
            manifest: RunManifest {
                seed: 0xB00735,
                scale: 0.25,
                env: vec![("BOOTERS_THREADS".into(), "(default)".into())],
                crates: vec![("booters-core".into(), "0.1.0".into())],
                wall_ns: 3_000_000_000,
            },
            snapshot,
            artifacts: vec![
                Artifact {
                    name: "table1.txt".into(),
                    caption: "global model".into(),
                    body: "coef <escaped> & done\n".into(),
                },
                Artifact {
                    name: "fig1_timeline.csv".into(),
                    caption: "weekly attacks".into(),
                    body: "week,attacks\n2016-06-06,120\n2016-06-13,133\n".into(),
                },
            ],
            scenarios: None,
            bench: parse_bench_lines(
                "BENCH_glm.json",
                "{\"name\":\"negbin_fit\",\"median_ns\":1935889,\"mad_ns\":205387,\"samples\":20,\"iters_per_sample\":5}\n\
                 {\"name\":\"negbin_cold\",\"median_ns\":4689616,\"mad_ns\":200719,\"samples\":20,\"iters_per_sample\":2}\n",
            ),
        }
    }

    #[test]
    fn bench_lines_parse_and_skip_garbage() {
        let recs = parse_bench_lines(
            "BENCH_x.json",
            "{\"name\":\"a\",\"median_ns\":10,\"mad_ns\":1,\"samples\":5}\nnot json\n",
        );
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "a");
        assert_eq!(recs[0].median_ns, 10);
        assert_eq!(recs[0].file, "BENCH_x.json");
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let html = render_html(&sample_input());
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("&lt;escaped&gt; &amp; done"));
        assert!(html.contains("glm.irls_fits"));
        assert!(html.contains("negbin_fit"));
        assert!(html.contains("<svg"), "bench sparkline missing");
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        assert!(!html.contains("src="));
        assert!(!html.contains("href="));
    }

    #[test]
    fn csv_artifacts_become_sortable_typed_tables() {
        let html = render_html(&sample_input());
        // The date column sorts lexicographically, the count column
        // numerically — the classification is stamped on the headers.
        assert!(html.contains("<th data-type=\"string\">week</th>"));
        assert!(html.contains("<th data-type=\"integer\">attacks"));
        assert!(html.contains("<td>2016-06-13</td><td>133</td>"));
        assert!(html.contains("table.sortable"));
        assert!(html.contains("table.paged"));
    }

    #[test]
    fn row_addresses_cut_pages_consistently() {
        let f = RowAddressFactory::new(50);
        assert_eq!(f.get(0), RowAddress { page: 0, local: 0 });
        assert_eq!(f.get(49), RowAddress { page: 0, local: 49 });
        assert_eq!(f.get(50), RowAddress { page: 1, local: 0 });
        assert_eq!(f.get(137), RowAddress { page: 2, local: 37 });
        // Degenerate page size clamps rather than dividing by zero.
        assert_eq!(RowAddressFactory::new(0).page_size(), 1);
    }

    #[test]
    fn columns_classify_by_content() {
        let types = classify_table(
            "week,attacks,rate,note,blank\n\
             2016-06-06,120,0.5,ok,\n\
             2016-06-13,133,1.25,,\n",
        );
        assert_eq!(
            types,
            vec![
                ColumnType::String,
                ColumnType::Integer,
                ColumnType::Float,
                ColumnType::String,
                ColumnType::None,
            ]
        );
    }

    #[test]
    fn long_csv_tables_page_and_plot() {
        let mut body = String::from("i,value\n");
        for i in 0..120 {
            body.push_str(&format!("{i},{}\n", i * i));
        }
        let input = ReportInput {
            artifacts: vec![Artifact {
                name: "long.csv".into(),
                caption: "paged".into(),
                body,
            }],
            ..sample_input()
        };
        let html = render_html(&input);
        // Server-side row addressing: 120 rows at page size 50 span
        // pages 0..=2, and pages after the first start hidden.
        assert!(html.contains("data-page-size=\"50\""));
        assert!(html.contains("<tr data-page=\"2\" style=\"display:none\"><td>119</td>"));
        assert!(html.contains("<tr data-page=\"0\"><td>49</td>"));
        // Numeric columns carry a header sparkline plot.
        assert!(html.contains("<th data-type=\"integer\">value<svg"));
        // The pager script ships inline.
        assert!(html.contains("table.paged"));
        assert!(html.contains("__repage"));
    }

    #[test]
    fn scenario_section_renders_when_present() {
        let input = ReportInput {
            scenarios: Some(ScenarioSection {
                summary_csv: "scenario,shocks,total_attacks,delta_vs_baseline_pct,trend,alpha\n\
                              baseline,0,5000,+0.0,0.0030,0.1400\n\
                              webstresser,4,4400,-12.0,0.0029,0.1500\n"
                    .into(),
                coefficients_csv:
                    "scenario,window,date,delay_weeks,duration_weeks,coef,mean_pct,lo_pct,hi_pct,p_value\n\
                     webstresser,s3_demand_shift,2018-04-24,2,3,-0.2357,-21.0,-30.0,-11.0,0.0001\n"
                        .into(),
                trajectories: vec![
                    ("baseline".into(), vec![100.0, 110.0, 105.0]),
                    ("webstresser".into(), vec![100.0, 90.0, 95.0]),
                ],
            }),
            ..sample_input()
        };
        let html = render_html(&input);
        assert!(html.contains("Cross-scenario comparison"));
        // One sparkline trajectory per suite entry.
        assert_eq!(html.matches("width=\"240\"").count(), 2);
        assert!(html.contains("<td>webstresser</td>"));
        assert!(html.contains("scenario_summary.csv"));
        assert!(html.contains("scenario_coefficients.csv"));
        assert!(html.contains("<td>s3_demand_shift</td>"));
        // Still fully offline.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        let md = render_markdown(&input);
        assert!(md.contains("## Cross-scenario comparison"));
        assert!(md.contains("| webstresser | 4 | 4400 | -12.0 |"));
        // The None arm stays silent.
        let plain = render_html(&sample_input());
        assert!(!plain.contains("Cross-scenario comparison"));
    }

    #[test]
    fn markdown_mirrors_sections() {
        let md = render_markdown(&sample_input());
        for heading in [
            "## Stage timings",
            "## Metric totals",
            "## Tables & figures",
            "## Benchmark trajectory",
        ] {
            assert!(md.contains(heading), "missing {heading}");
        }
        assert!(md.contains("| week | attacks |"));
        assert!(md.contains("| BENCH_glm.json | negbin_fit |"));
    }

    #[test]
    fn sparkline_needs_two_points() {
        assert!(sparkline_svg(&[5]).is_empty());
        assert!(sparkline_svg(&[5, 9, 7]).contains("polyline"));
    }

    #[test]
    fn ns_formatting_scales_units() {
        assert_eq!(fmt_ns(950), "950 ns");
        assert_eq!(fmt_ns(2_500), "2.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50 s");
    }
}
