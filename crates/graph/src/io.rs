//! Plain-text edge-list serialization.
//!
//! Format (one record per line, `#` comments allowed):
//!
//! ```text
//! # n <num_vertices>
//! n 7
//! # directed edge: e <src> <dst>
//! e 0 1
//! e 1 2
//! # group membership: g <vertex> <group>
//! g 0 12
//! ```
//!
//! The format round-trips everything [`Graph`] stores: vertex count,
//! directed edge set `E_d`, and group labels. Undirected graphs are stored
//! as the two directed arcs.
//!
//! For compatibility with real public edge lists, bare `src<TAB>dst` /
//! `src dst` lines (SNAP style, no `e` prefix) are accepted as directed
//! edges too, with the vertex count inferred when no `n` header is
//! present.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::ids::VertexId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced by the edge-list reader.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the text format, with line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// One parsed line of the edge-list dialect — the **single home** of
/// the text grammar. Both [`read_edge_list`] and `fs-store`'s ingestion
/// read through [`EdgeListScanner`], which is what guarantees the two
/// conversion paths accept identical inputs and load identical graphs
/// (`fs-store` pins the resulting files byte-for-byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeListRecord {
    /// Declared vertex count (`n N`); the last declaration wins.
    Vertices(usize),
    /// Directed edge (`e u v` or a bare SNAP-style `u v` pair).
    /// Self-loops are reported and dropped by the builder, but still
    /// raise the inferred vertex count.
    Edge(u32, u32),
    /// Group membership (`g v group`).
    Group(u32, u32),
    /// Comment (`#` / `%`) or blank line.
    Blank,
}

/// Parses one line of the edge-list dialect. Ids must fit `u32` (the
/// `VertexId`/`GroupId` representation — oversized ids are a
/// line-numbered error, never a silent wrap) and declared vertex counts
/// must keep every id representable.
pub fn parse_edge_list_line(line: &str, lineno: usize) -> Result<EdgeListRecord, IoError> {
    let text = line.trim();
    // `%` comments for KONECT-style dumps, matching the SNAP reader.
    if text.is_empty() || text.starts_with('#') || text.starts_with('%') {
        return Ok(EdgeListRecord::Blank);
    }
    let mut parts = text.split_ascii_whitespace();
    let tag = parts.next().unwrap();
    let mut wide = |what: &str| -> Result<u64, IoError> {
        parts
            .next()
            .ok_or_else(|| IoError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad {what}: {e}"),
            })
    };
    let narrow = |raw: u64, what: &str| -> Result<u32, IoError> {
        u32::try_from(raw).map_err(|_| IoError::Parse {
            line: lineno,
            message: format!("{what} {raw} overflows u32 ids"),
        })
    };
    match tag {
        "n" => {
            let n = wide("vertex count")?;
            if n > u32::MAX as u64 + 1 {
                return Err(IoError::Parse {
                    line: lineno,
                    message: format!("vertex count {n} overflows u32 ids"),
                });
            }
            Ok(EdgeListRecord::Vertices(n as usize))
        }
        "e" => {
            let u = wide("source")?;
            let v = wide("target")?;
            Ok(EdgeListRecord::Edge(
                narrow(u, "source")?,
                narrow(v, "target")?,
            ))
        }
        "g" => {
            let v = wide("vertex")?;
            let g = wide("group")?;
            Ok(EdgeListRecord::Group(
                narrow(v, "vertex")?,
                narrow(g, "group")?,
            ))
        }
        // SNAP-style bare `src dst` line (tab or space separated, no
        // `e` prefix): real public edge lists (SNAP / KONECT dumps)
        // load without preprocessing. Ids are used as-is (dense-id
        // convention of this format; use `read_snap_edge_list` for
        // sparse-id compaction). Trailing fields (timestamps, weights)
        // are ignored, as they are after `e u v`.
        tag if tag.bytes().all(|b| b.is_ascii_digit()) => {
            let u = tag.parse::<u64>().map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad source: {e}"),
            })?;
            let v = wide("target")?;
            Ok(EdgeListRecord::Edge(
                narrow(u, "source")?,
                narrow(v, "target")?,
            ))
        }
        other => Err(IoError::Parse {
            line: lineno,
            message: format!("unknown record tag '{other}'"),
        }),
    }
}

/// Streams the records of an edge list from bytes. A plain edge line —
/// `[e<sep>]<digits><sep><digits>`, optionally followed by a separator
/// or `\r` and more ASCII, where `<sep>` is a run of spaces and tabs and
/// each id has at most 10 digits and fits `u32` — is parsed in place in
/// the reader's buffer. Every other line is copied to one reused buffer
/// and goes through [`parse_edge_list_line`], so the grammar, the error
/// messages and the line numbers are those of one parser; a line that
/// is not UTF-8 is a line-numbered error.
pub struct EdgeListScanner<R> {
    reader: R,
    line: Vec<u8>,
    lineno: usize,
}

impl<R: BufRead> EdgeListScanner<R> {
    /// Scans `reader` from its current position.
    pub fn new(reader: R) -> Self {
        EdgeListScanner {
            reader,
            line: Vec::new(),
            lineno: 0,
        }
    }

    /// Lines read so far.
    pub fn lines(&self) -> usize {
        self.lineno
    }

    /// The next record with its 1-based line number, or `None` at the
    /// end of the input. Lines end at `\n`, as for [`BufRead::lines`].
    pub fn next_record(&mut self) -> Result<Option<(EdgeListRecord, usize)>, IoError> {
        let buf = self.reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(None);
        }
        self.lineno += 1;
        if let Some((u, v, len)) = plain_edge(buf) {
            self.reader.consume(len);
            return Ok(Some((EdgeListRecord::Edge(u, v), self.lineno)));
        }
        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        let text = line_text(&self.line, self.lineno)?;
        Ok(Some((
            parse_edge_list_line(text, self.lineno)?,
            self.lineno,
        )))
    }
}

/// The text of a line read through its `\n`, without the `\n` or the
/// `\r\n` (as [`BufRead::lines`] strips them); a line that is not UTF-8
/// is a line-numbered error.
fn line_text(line: &[u8], lineno: usize) -> Result<&str, IoError> {
    let mut bytes = line;
    if let Some(rest) = bytes.strip_suffix(b"\n") {
        bytes = rest.strip_suffix(b"\r").unwrap_or(rest);
    }
    std::str::from_utf8(bytes).map_err(|_| IoError::Parse {
        line: lineno,
        message: "invalid UTF-8".into(),
    })
}

/// Calls `f` with each line of `reader` (as [`BufRead::lines`] splits
/// them) and its 1-based number, through one reused buffer. A line that
/// is not UTF-8 is a line-numbered error, as in [`EdgeListScanner`].
pub(crate) fn for_each_line<R: BufRead>(
    mut reader: R,
    mut f: impl FnMut(&str, usize) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut line = Vec::new();
    let mut lineno = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        lineno += 1;
        f(line_text(&line, lineno)?, lineno)?;
    }
}

/// The ids of the plain edge line (see [`EdgeListScanner`]) at the
/// start of `buf`, and its length through the `\n`; `None` if the line
/// is not plain or its `\n` is not in `buf`. `None` only sends the line
/// to [`parse_edge_list_line`], which agrees with this on every plain
/// line.
fn plain_edge(buf: &[u8]) -> Option<(u32, u32, usize)> {
    let seps = |mut at: usize| {
        while matches!(buf.get(at), Some(b' ' | b'\t')) {
            at += 1;
        }
        at
    };
    let id = |start: usize| -> Option<(u32, usize)> {
        let mut value = 0u64;
        let mut at = start;
        while let Some(digit) = buf
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            if at - start == 10 {
                return None;
            }
            value = value * 10 + u64::from(digit);
            at += 1;
        }
        if at == start {
            return None;
        }
        Some((u32::try_from(value).ok()?, at))
    };
    let mut at = 0;
    if buf.first() == Some(&b'e') {
        at = seps(1);
        if at == 1 {
            return None;
        }
    }
    let (u, end) = id(at)?;
    at = seps(end);
    if at == end {
        return None;
    }
    let (v, end) = id(at)?;
    match buf.get(end)? {
        b'\n' => Some((u, v, end + 1)),
        b' ' | b'\t' | b'\r' => {
            let newline = end + buf[end..].iter().position(|&b| b == b'\n')?;
            buf[end..newline].is_ascii().then_some((u, v, newline + 1))
        }
        _ => None,
    }
}

/// Writes `graph` to `writer` in the edge-list format.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# fs-graph edge list")?;
    writeln!(w, "n {}", graph.num_vertices())?;
    for arc in graph.original_edges() {
        writeln!(w, "e {} {}", arc.source, arc.target)?;
    }
    for v in graph.vertices() {
        for &g in graph.groups_of(v) {
            writeln!(w, "g {v} {g}")?;
        }
    }
    w.flush()
}

/// Reads a graph in the edge-list format from `reader` (the dialect of
/// [`parse_edge_list_line`], including SNAP-style bare `src dst` pairs
/// with an inferred vertex count).
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut scanner = EdgeListScanner::new(BufReader::new(reader));
    let mut declared: Option<usize> = None;
    let mut pending_edges: Vec<(u32, u32)> = Vec::new();
    let mut pending_groups: Vec<(u32, u32)> = Vec::new();
    let mut max_seen: usize = 0;
    // Line that first referenced the highest vertex id — the line a
    // declared-too-small error points at. Shared contract with the
    // streaming `fs-store` ingester: same message, same line number
    // (pinned by the store crate's dialect-parity test).
    let mut max_line: usize = 0;

    while let Some((record, lineno)) = scanner.next_record()? {
        match record {
            EdgeListRecord::Blank => {}
            EdgeListRecord::Vertices(n) => declared = Some(n),
            EdgeListRecord::Edge(u, v) => {
                let hi = u.max(v) as usize + 1;
                if hi > max_seen {
                    max_seen = hi;
                    max_line = lineno;
                }
                pending_edges.push((u, v));
            }
            EdgeListRecord::Group(v, g) => {
                if v as usize + 1 > max_seen {
                    max_seen = v as usize + 1;
                    max_line = lineno;
                }
                pending_groups.push((v, g));
            }
        }
    }

    let n = declared.unwrap_or(max_seen);
    if n < max_seen {
        return Err(IoError::Parse {
            line: max_line,
            message: format!(
                "declared {n} vertices but records reference vertex {}",
                max_seen - 1
            ),
        });
    }
    let mut b = GraphBuilder::with_capacity(n, pending_edges.len());
    for (u, v) in pending_edges {
        b.add_edge(VertexId::from(u), VertexId::from(v));
    }
    for (v, g) in pending_groups {
        b.add_group(VertexId::from(v), g);
    }
    Ok(b.build())
}

/// Reads a graph in the SNAP plain edge-list format: one `src dst` pair
/// per line (whitespace separated), `#` comment lines ignored, vertex ids
/// arbitrary non-negative integers (compacted to a dense `0..n` range in
/// first-appearance order).
///
/// This is the format the paper's real datasets circulate in (SNAP /
/// KONECT dumps), so a user with access to e.g. `soc-LiveJournal1.txt`
/// can run every experiment on the genuine graph:
///
/// ```
/// let text = "# comment\n10 20\n20 30\n10 30\n";
/// let g = fs_graph::io::read_snap_edge_list(text.as_bytes()).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_original_edges(), 3);
/// ```
pub fn read_snap_edge_list<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut remap: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let intern = |raw: u64, remap: &mut std::collections::HashMap<u64, u32>| -> u32 {
        let next = remap.len() as u32;
        *remap.entry(raw).or_insert(next)
    };
    for_each_line(BufReader::new(reader), |line, lineno| {
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') || text.starts_with('%') {
            return Ok(());
        }
        let mut parts = text.split_ascii_whitespace();
        let parse = |s: Option<&str>| -> Result<u64, IoError> {
            s.ok_or_else(|| IoError::Parse {
                line: lineno,
                message: "expected 'src dst'".into(),
            })?
            .parse::<u64>()
            .map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad vertex id: {e}"),
            })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        let su = intern(u, &mut remap);
        let sv = intern(v, &mut remap);
        edges.push((su, sv));
        Ok(())
    })?;
    let mut b = GraphBuilder::with_capacity(remap.len(), edges.len());
    for (u, v) in edges {
        b.add_edge(VertexId::from(u), VertexId::from(v));
    }
    Ok(b.build())
}

/// Loads a SNAP-format edge list from a file (see
/// [`read_snap_edge_list`]).
pub fn load_snap_edge_list(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_snap_edge_list(std::fs::File::open(path)?)
}

/// Writes `graph` to the file at `path`.
pub fn save_edge_list(graph: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    write_edge_list(graph, std::fs::File::create(path)?)
}

/// Loads a graph from the file at `path`.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(0));
        b.add_edge(v(2), v(3));
        b.add_group(v(0), 5);
        b.add_group(v(3), 5);
        b.add_group(v(3), 9);
        b.build()
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_original_edges(), g.num_original_edges());
        assert_eq!(g2.num_arcs(), g.num_arcs());
        assert!(g2.has_original_edge(v(2), v(3)));
        assert!(!g2.has_original_edge(v(3), v(2)));
        assert_eq!(g2.groups_of(v(3)), &[5, 9]);
        g2.validate().unwrap();
    }

    #[test]
    fn read_without_header_infers_size() {
        let text = "e 0 1\ne 1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_original_edges(), 2);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hi\n\nn 2\n  # indented comment\ne 0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 2);
    }

    #[test]
    fn bad_tag_rejected() {
        let err = read_edge_list("x 0 1\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn out_of_range_vertex_rejected() {
        let err = read_edge_list("n 2\ne 0 5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn missing_field_rejected() {
        assert!(read_edge_list("e 0\n".as_bytes()).is_err());
        assert!(read_edge_list("g 1\n".as_bytes()).is_err());
    }

    #[test]
    fn bare_pairs_accepted_as_edges() {
        // SNAP-style lines, tab and space separated, mixed with comments.
        let text = "# snap dump\n0\t1\n1 2\n2\t0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_original_edges(), 3);
        assert!(g.has_original_edge(v(2), v(0)));
        g.validate().unwrap();
    }

    #[test]
    fn bare_pairs_mix_with_tagged_records() {
        let text = "n 5\n0 1\ne 1 2\ng 4 7\n3\t4\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_original_edges(), 3);
        assert_eq!(g.groups_of(v(4)), &[7]);
    }

    #[test]
    fn bare_pairs_ignore_trailing_fields() {
        let g = read_edge_list("0 1 1367\n1 2 99 x\n".as_bytes()).unwrap();
        assert_eq!(g.num_original_edges(), 2);
    }

    #[test]
    fn bare_pair_errors_keep_line_numbers() {
        let err = read_edge_list("e 0 1\n\n5 x\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("target"), "unexpected message {message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        let err = read_edge_list("7\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
        // A non-numeric tag is still rejected, not silently skipped.
        assert!(read_edge_list("edge 0 1\n".as_bytes()).is_err());
    }

    #[test]
    fn oversized_ids_rejected_not_wrapped() {
        // Ids must fit u32 (the VertexId/GroupId representation); a
        // silent wrap would load a structurally wrong graph. The
        // streaming ingest path shares this parser, so both conversion
        // routes reject identically.
        for text in [
            "e 0 4294967296\n",
            "g 0 4294967296\n",
            "4294967296 1\n",
            "n 4294967297\n",
        ] {
            match read_edge_list(text.as_bytes()) {
                Err(IoError::Parse { line, message }) => {
                    assert_eq!(line, 1);
                    assert!(message.contains("overflows"), "message: {message}");
                }
                other => panic!("{text:?} should be rejected, got {other:?}"),
            }
        }
        // The largest representable universe is still accepted (parser
        // level — actually building a 2^32-vertex graph is a 30+ GiB
        // allocation, not a unit test).
        assert_eq!(
            parse_edge_list_line("n 4294967296", 1).unwrap(),
            EdgeListRecord::Vertices(4_294_967_296)
        );
        assert_eq!(
            parse_edge_list_line("e 4294967295 0", 1).unwrap(),
            EdgeListRecord::Edge(u32::MAX, 0)
        );
    }

    #[test]
    fn plain_edges_parse_as_the_line_parser_does() {
        // Every line of up to five pieces: whatever the fast path takes,
        // `parse_edge_list_line` must read as the same edge, and the
        // fast path must end the line at its newline.
        let pieces = [
            "e",
            "0",
            "17",
            "007",
            "4294967295",
            "4294967296",
            "12345678901",
            "+1",
            " ",
            "\t",
            "\r",
            "x",
            "\x0b",
            "\x0c",
            "\u{a0}",
        ];
        let mut lines = vec![String::new()];
        for _ in 0..5 {
            let longer: Vec<String> = lines
                .iter()
                .flat_map(|l| pieces.iter().map(move |p| format!("{l}{p}")))
                .collect();
            lines.extend(longer);
        }
        let mut plain = 0;
        for line in &lines {
            let with_newline = format!("{line}\n");
            if let Some((u, v, len)) = plain_edge(with_newline.as_bytes()) {
                plain += 1;
                assert_eq!(len, with_newline.len(), "{line:?}");
                assert_eq!(
                    parse_edge_list_line(line, 1).unwrap(),
                    EdgeListRecord::Edge(u, v),
                    "{line:?}"
                );
            }
            // A line cut short of its newline is never taken.
            assert_eq!(plain_edge(line.as_bytes()), None, "{line:?}");
        }
        assert!(plain > 1000, "only {plain} plain lines");
    }

    #[test]
    fn bare_pairs_respect_declared_count() {
        let err = read_edge_list("n 2\n0 5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn snap_format_basics() {
        let text = "# a comment\n% another style\n5 7\n7 9\n5 9\n9 5\n";
        let g = read_snap_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        // 4 directed edges incl. the reciprocal 9->5.
        assert_eq!(g.num_original_edges(), 4);
        // Ids compacted in first-appearance order: 5->0, 7->1, 9->2.
        assert!(g.has_original_edge(v(0), v(1)));
        assert!(g.has_original_edge(v(2), v(0)));
        g.validate().unwrap();
    }

    #[test]
    fn snap_format_rejects_garbage() {
        assert!(read_snap_edge_list("1 x\n".as_bytes()).is_err());
        assert!(read_snap_edge_list("1\n".as_bytes()).is_err());
    }

    #[test]
    fn snap_format_reports_invalid_utf8_with_its_line() {
        let err = read_snap_edge_list(&b"1 2\n\xff 3\n"[..]).unwrap_err();
        assert_eq!(err.to_string(), "parse error at line 2: invalid UTF-8");
        // Line endings and a last line without `\n` split as before.
        let g = read_snap_edge_list(&b"1 2\r\n2 3\n3 1"[..]).unwrap();
        assert_eq!(g.num_original_edges(), 3);
    }

    #[test]
    fn snap_format_self_loops_dropped() {
        let g = read_snap_edge_list("1 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_original_edges(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir().join("fs_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.el");
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g2.num_original_edges(), 4);
        std::fs::remove_file(&path).ok();
    }
}
