//! Plain-text serialization of weighted graphs, plus DOT export.
//!
//! The weighted edge-list format mirrors [`crate::io`] (one record per
//! line, `#` comments allowed):
//!
//! ```text
//! # n <num_vertices>
//! n 4
//! # undirected weighted edge: w <u> <v> <weight>
//! w 0 1 2.5
//! w 1 2 0.75
//! ```
//!
//! Each undirected edge appears once (the smaller endpoint first on
//! write); the loader accepts either orientation and accumulates
//! duplicates like [`crate::WeightedGraph::from_weighted_pairs`].
//!
//! [`write_dot`] and [`write_weighted_dot`] render Graphviz DOT for
//! small-graph debugging and figures — weights become edge labels.

use crate::graph::Graph;
use crate::io::{for_each_line, IoError};
use crate::weighted::WeightedGraph;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `graph` to `writer` in the weighted edge-list format.
pub fn write_weighted_edge_list<W: Write>(graph: &WeightedGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# fs-graph weighted edge list")?;
    writeln!(w, "n {}", graph.num_vertices())?;
    for u in graph.vertices() {
        for (&v, &weight) in graph.neighbors(u).iter().zip(graph.neighbor_weights(u)) {
            if u.index() < v.index() {
                writeln!(w, "w {u} {v} {weight}")?;
            }
        }
    }
    w.flush()
}

/// Reads a weighted graph in the weighted edge-list format from `reader`.
pub fn read_weighted_edge_list<R: Read>(reader: R) -> Result<WeightedGraph, IoError> {
    let mut n: Option<usize> = None;
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    let mut max_seen = 0usize;

    for_each_line(BufReader::new(reader), |line, lineno| {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            return Ok(());
        }
        let mut toks = body.split_whitespace();
        let tag = toks.next().unwrap();
        let parse_usize = |tok: Option<&str>, what: &str| -> Result<usize, IoError> {
            tok.ok_or_else(|| IoError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|_| IoError::Parse {
                line: lineno,
                message: format!("bad {what}"),
            })
        };
        match tag {
            "n" => {
                let count = parse_usize(toks.next(), "vertex count")?;
                n = Some(count);
            }
            "w" => {
                let u = parse_usize(toks.next(), "source vertex")?;
                let v = parse_usize(toks.next(), "target vertex")?;
                let weight: f64 = toks
                    .next()
                    .ok_or_else(|| IoError::Parse {
                        line: lineno,
                        message: "missing weight".into(),
                    })?
                    .parse()
                    .map_err(|_| IoError::Parse {
                        line: lineno,
                        message: "bad weight".into(),
                    })?;
                if !(weight.is_finite() && weight > 0.0) {
                    return Err(IoError::Parse {
                        line: lineno,
                        message: format!("weight must be finite and positive, got {weight}"),
                    });
                }
                if u == v {
                    return Err(IoError::Parse {
                        line: lineno,
                        message: format!("self-loop ({u}, {u})"),
                    });
                }
                max_seen = max_seen.max(u).max(v);
                pairs.push((u, v, weight));
            }
            other => {
                return Err(IoError::Parse {
                    line: lineno,
                    message: format!("unknown record tag {other:?}"),
                })
            }
        }
        Ok(())
    })?;
    let n = n.unwrap_or(max_seen + 1);
    if let Some(&(u, v, _)) = pairs.iter().find(|&&(u, v, _)| u >= n || v >= n) {
        return Err(IoError::Parse {
            line: 0,
            message: format!("edge ({u}, {v}) outside declared vertex count {n}"),
        });
    }
    Ok(WeightedGraph::from_weighted_pairs(n, pairs))
}

/// Saves `graph` to `path` in the weighted edge-list format.
pub fn save_weighted_edge_list(graph: &WeightedGraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_weighted_edge_list(graph, std::fs::File::create(path)?)
}

/// Loads a weighted graph from `path`.
pub fn load_weighted_edge_list(path: impl AsRef<Path>) -> Result<WeightedGraph, IoError> {
    read_weighted_edge_list(std::fs::File::open(path)?)
}

/// Writes `graph` as Graphviz DOT (undirected view; original-direction
/// information is dropped). Intended for *small* graphs — figures and
/// debugging, not datasets.
pub fn write_dot<W: Write>(graph: &Graph, name: &str, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "graph {} {{", sanitize_dot_id(name))?;
    writeln!(w, "  node [shape=circle];")?;
    for v in graph.vertices() {
        writeln!(w, "  {v};")?;
    }
    for arc in graph.undirected_edges() {
        writeln!(w, "  {} -- {};", arc.source, arc.target)?;
    }
    writeln!(w, "}}")?;
    w.flush()
}

/// Writes a weighted graph as Graphviz DOT with weight edge labels.
pub fn write_weighted_dot<W: Write>(
    graph: &WeightedGraph,
    name: &str,
    writer: W,
) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "graph {} {{", sanitize_dot_id(name))?;
    writeln!(w, "  node [shape=circle];")?;
    for v in graph.vertices() {
        writeln!(w, "  {v};")?;
    }
    for u in graph.vertices() {
        for (&v, &weight) in graph.neighbors(u).iter().zip(graph.neighbor_weights(u)) {
            if u.index() < v.index() {
                writeln!(w, "  {u} -- {v} [label=\"{weight}\"];")?;
            }
        }
    }
    writeln!(w, "}}")?;
    w.flush()
}

/// DOT identifiers: keep alphanumerics and underscores, replace the rest.
fn sanitize_dot_id(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) || cleaned.is_empty() {
        format!("g_{cleaned}")
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_undirected_pairs;
    use crate::ids::VertexId;

    fn wg() -> WeightedGraph {
        WeightedGraph::from_weighted_pairs(4, [(0, 1, 1.0), (1, 2, 2.5), (0, 2, 3.0), (2, 3, 10.0)])
    }

    #[test]
    fn weighted_round_trip() {
        let g = wg();
        let mut buf = Vec::new();
        write_weighted_edge_list(&g, &mut buf).unwrap();
        let g2 = read_weighted_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for u in g.vertices() {
            assert_eq!(g2.strength(u), g.strength(u), "strength of {u}");
            for &v in g.neighbors(u) {
                assert_eq!(g2.edge_weight(u, v), g.edge_weight(u, v));
            }
        }
        g2.validate().unwrap();
    }

    #[test]
    fn reader_accepts_comments_and_infers_n() {
        let text = "# comment\nw 0 1 1.5 # trailing\n\nw 1 2 2.0\n";
        let g = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(VertexId::new(0), VertexId::new(1)), Some(1.5));
    }

    #[test]
    fn reader_reports_invalid_utf8_with_its_line() {
        let err = read_weighted_edge_list(&b"w 0 1 2.5\n\xff 3\n"[..]).unwrap_err();
        assert_eq!(err.to_string(), "parse error at line 2: invalid UTF-8");
    }

    #[test]
    fn reader_accumulates_duplicates() {
        let text = "n 2\nw 0 1 1.0\nw 1 0 2.0\n";
        let g = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(VertexId::new(0), VertexId::new(1)), Some(3.0));
    }

    #[test]
    fn reader_rejects_malformed() {
        for bad in [
            "w 0 1",          // missing weight
            "w 0 1 zero",     // unparsable weight
            "w 0 1 -1.0",     // negative weight
            "w 0 1 inf",      // non-finite
            "w 1 1 1.0",      // self-loop
            "x 0 1 1.0",      // unknown tag
            "n 2\nw 0 5 1.0", // out of range
        ] {
            assert!(
                read_weighted_edge_list(bad.as_bytes()).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn io_error_messages_carry_line_numbers() {
        let err = read_weighted_edge_list("n 2\nw 0 1 bogus\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn dot_output_shape() {
        let g = graph_from_undirected_pairs(3, [(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_dot(&g, "demo graph", &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("graph demo_graph {"));
        assert!(s.contains("0 -- 1;"));
        assert!(s.contains("1 -- 2;"));
        assert!(s.trim_end().ends_with('}'));
        // Each undirected edge rendered exactly once.
        assert_eq!(s.matches(" -- ").count(), 2);
    }

    #[test]
    fn weighted_dot_labels_weights() {
        let g = wg();
        let mut buf = Vec::new();
        write_weighted_dot(&g, "1bad-name", &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("graph g_1bad_name {"), "{s}");
        assert!(s.contains("[label=\"2.5\"]"));
        assert_eq!(s.matches(" -- ").count(), g.num_edges());
    }

    #[test]
    fn file_round_trip() {
        let g = wg();
        let dir = std::env::temp_dir().join("fs_graph_weighted_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.wel");
        save_weighted_edge_list(&g, &path).unwrap();
        let g2 = load_weighted_edge_list(&path).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }
}
