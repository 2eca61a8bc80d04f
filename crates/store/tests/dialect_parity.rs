//! Table-driven parity test: the in-memory text loader
//! (`fs_graph::io::read_edge_list`) and the streaming external-memory
//! ingester ([`fs_store::ingest_edge_list`]) must agree on **every**
//! input — accepting the same well-formed dialects (CRLF line endings,
//! tab separators, trailing garbage fields, comments) with identical
//! resulting stores, and rejecting the same malformed classes
//! (overflowing ids, missing fields, unknown tags, undersized `n`
//! declarations) with the **same error message at the same line
//! number**. A drift here means a file that converts on one path and
//! fails on the other, or an error that points users at the wrong line.

use fs_store::{ingest_edge_list, IngestOptions, StoreError};
use std::io::Write;
use std::path::PathBuf;

struct Case {
    name: &'static str,
    input: &'static str,
    /// `Ok` ⇒ both paths must accept and produce the same store bytes;
    /// `Err((line, fragment))` ⇒ both must reject at `line` with a
    /// message containing `fragment`.
    expect: Result<(), (usize, &'static str)>,
}

const CASES: &[Case] = &[
    Case {
        name: "crlf line endings",
        input: "# comment\r\nn 3\r\ne 0 1\r\ne 1 2\r\n",
        expect: Ok(()),
    },
    Case {
        name: "tab separated bare pairs",
        input: "0\t1\n1\t2\n2\t0\n",
        expect: Ok(()),
    },
    Case {
        name: "mixed tabs, spaces, crlf, blank lines",
        input: "n 4\r\n\r\ne 0\t1\n1 2\r\n\t3\t0\t\n",
        expect: Ok(()),
    },
    Case {
        name: "trailing garbage fields ignored",
        input: "0 1 1367 x\ne 1 2 weight=3\n",
        expect: Ok(()),
    },
    Case {
        name: "percent and hash comments, indented",
        input: "% konect\n  # snap\ne 0 1\n",
        expect: Ok(()),
    },
    Case {
        name: "self loops dropped but raise the universe",
        input: "e 2 2\ne 0 1\n",
        expect: Ok(()),
    },
    Case {
        name: "groups and declared count",
        input: "n 5\ne 0 1\ng 4 7\ng 4 2\n",
        expect: Ok(()),
    },
    Case {
        name: "source id overflows u32",
        input: "e 0 1\ne 4294967296 1\n",
        expect: Err((2, "overflows u32 ids")),
    },
    Case {
        name: "bare target id overflows u32",
        input: "1 4294967296\n",
        expect: Err((1, "overflows u32 ids")),
    },
    Case {
        name: "vertex count overflows u32 universe",
        input: "n 4294967297\n",
        expect: Err((1, "overflows u32 ids")),
    },
    Case {
        name: "missing edge target",
        input: "e 0 1\ne 5\n",
        expect: Err((2, "missing target")),
    },
    Case {
        name: "missing group field",
        input: "g 1\n",
        expect: Err((1, "missing group")),
    },
    Case {
        name: "unknown record tag",
        input: "e 0 1\nx 0 1\n",
        expect: Err((2, "unknown record tag")),
    },
    Case {
        name: "bare single token",
        input: "7\n",
        expect: Err((1, "missing target")),
    },
    Case {
        name: "non-numeric target after crlf lines",
        input: "e 0 1\r\n\r\ne 2 x\r\n",
        expect: Err((3, "bad target")),
    },
    Case {
        name: "declared count too small for edge",
        input: "n 2\ne 0 1\ne 0 5\n",
        expect: Err((3, "declared 2 vertices but records reference vertex 5")),
    },
    Case {
        name: "declared count too small for bare pair",
        input: "n 2\n0 5\n",
        expect: Err((2, "declared 2 vertices but records reference vertex 5")),
    },
    Case {
        name: "declared count too small for group record",
        input: "n 1\ne 0 0\ng 3 1\n",
        expect: Err((3, "declared 1 vertices but records reference vertex 3")),
    },
    // Lines next to the plain `[e ]<digits> <digits>` shape: ids with
    // a sign or leading zeros, glued or tab-separated tags, oversized
    // ids, and whitespace that only `str::trim` (not ASCII splitting)
    // knows. No accepted case names an id near `u32::MAX`: both loaders
    // would allocate a 2^32-entry table.
    Case {
        name: "signed bare source is an unknown tag",
        input: "+1 2\n",
        expect: Err((1, "unknown record tag '+1'")),
    },
    Case {
        name: "signed id after the e tag parses",
        input: "e +1 2\n",
        expect: Ok(()),
    },
    Case {
        name: "leading zeros",
        input: "00 01\ne 002 0003\n",
        expect: Ok(()),
    },
    Case {
        name: "tag glued to the source",
        input: "e 1 2\ne0 1\n",
        expect: Err((2, "unknown record tag 'e0'")),
    },
    Case {
        name: "tab after the e tag",
        input: "e\t0\t1\n",
        expect: Ok(()),
    },
    Case {
        name: "eleven-digit id",
        input: "0 1\n12345678901 1\n",
        expect: Err((2, "overflows u32 ids")),
    },
    Case {
        name: "eleven-digit id with leading zeros",
        input: "00000000001 2\n",
        expect: Ok(()),
    },
    Case {
        name: "twenty-one-digit id",
        input: "e 0 123456789012345678901\n",
        expect: Err((1, "number too large")),
    },
    Case {
        name: "leading vertical tab",
        input: "\x0b0 1\n",
        expect: Ok(()),
    },
    Case {
        name: "leading form feed",
        input: "\x0ce 0 1\n",
        expect: Ok(()),
    },
    Case {
        name: "vertical tab is not a separator",
        input: "0 1\n0\x0b1\n",
        expect: Err((2, "unknown record tag")),
    },
    Case {
        name: "form feed separates ids",
        input: "0\x0c1\ne 1\x0c2\n",
        expect: Ok(()),
    },
    Case {
        name: "leading and trailing no-break space",
        input: "\u{a0}0 1\n1 2\u{a0}\n",
        expect: Ok(()),
    },
    Case {
        name: "no-break space inside a record",
        input: "0\u{a0}1\n",
        expect: Err((1, "unknown record tag")),
    },
    Case {
        name: "lone carriage returns",
        input: "0 1\r1 2\n\r\ne 2 3\r\r\n",
        expect: Ok(()),
    },
    Case {
        name: "carriage return glued to the target",
        input: "0 1\r\n2 3x\r\n",
        expect: Err((2, "bad target")),
    },
    Case {
        name: "last line without a newline",
        input: "n 4\n0 1\n2 3",
        expect: Ok(()),
    },
    Case {
        name: "error on a last line without a newline",
        input: "0 1\n2",
        expect: Err((2, "missing target")),
    },
    Case {
        name: "non-ascii trailing field is ignored",
        input: "0 1 caf\u{e9}\ne 1 2 \u{2014}\n",
        expect: Ok(()),
    },
];

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fs_dialect_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The canonical "parse error at line N: message" string both paths
/// must produce, with each path's outer wrapper stripped.
fn io_error_string(e: fs_graph::io::IoError) -> String {
    e.to_string()
}

fn store_error_string(e: StoreError) -> String {
    let s = e.to_string();
    s.strip_prefix("malformed store: ")
        .unwrap_or(&s)
        .to_string()
}

#[test]
fn loader_and_ingester_agree_on_every_dialect_class() {
    let dir = tmp_dir();
    for (i, case) in CASES.iter().enumerate() {
        let input_path = dir.join(format!("case_{i}.el"));
        let mut f = std::fs::File::create(&input_path).unwrap();
        f.write_all(case.input.as_bytes()).unwrap();
        drop(f);
        let output_path = dir.join(format!("case_{i}.fsg"));

        let in_memory = fs_graph::io::read_edge_list(case.input.as_bytes());
        let streaming = ingest_edge_list(&input_path, &output_path, &IngestOptions::default());

        match case.expect {
            Ok(()) => {
                let graph = in_memory
                    .unwrap_or_else(|e| panic!("[{}] in-memory path rejected: {e}", case.name));
                streaming
                    .as_ref()
                    .unwrap_or_else(|e| panic!("[{}] streaming path rejected: {e}", case.name));
                // Accepting is not enough: both paths must produce the
                // one canonical store for this input, byte for byte.
                let mem_path = dir.join(format!("case_{i}.mem.fsg"));
                fs_store::write_store(&graph, &mem_path).unwrap();
                let streamed = std::fs::read(&output_path).unwrap();
                let in_mem = std::fs::read(&mem_path).unwrap();
                assert_eq!(
                    streamed, in_mem,
                    "[{}] paths accepted but built different stores",
                    case.name
                );
            }
            Err((line, fragment)) => {
                let io_err = io_error_string(
                    in_memory.expect_err(&format!("[{}] in-memory path accepted", case.name)),
                );
                let store_err = store_error_string(
                    streaming.expect_err(&format!("[{}] streaming path accepted", case.name)),
                );
                assert_eq!(
                    io_err, store_err,
                    "[{}] error text diverged between paths",
                    case.name
                );
                let expected_prefix = format!("parse error at line {line}:");
                assert!(
                    io_err.starts_with(&expected_prefix),
                    "[{}] wrong line: got {io_err:?}, want prefix {expected_prefix:?}",
                    case.name
                );
                assert!(
                    io_err.contains(fragment),
                    "[{}] message {io_err:?} missing fragment {fragment:?}",
                    case.name
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Bytes that are not UTF-8 are a line-numbered parse error on both
/// paths, whether the line looks like a record, a plain edge with a
/// trailing field, or a comment.
#[test]
fn invalid_utf8_is_a_line_numbered_error_on_both_paths() {
    // Not `tmp_dir()`: the table test removes that directory when done.
    let dir = std::env::temp_dir().join(format!("fs_dialect_utf8_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&[u8], usize); 4] = [
        (b"e 0 1\n\xff 1\n", 2),
        (b"0 1\n1 2 caf\xe9\n", 2),
        (b"# caf\xe9\n0 1\n", 1),
        (b"0 1\r\ne 1\t2\xc3", 2),
    ];
    for (i, (input, line)) in cases.into_iter().enumerate() {
        let input_path = dir.join(format!("utf8_{i}.el"));
        std::fs::write(&input_path, input).unwrap();
        let io_err = io_error_string(fs_graph::io::read_edge_list(input).unwrap_err());
        let store_err = store_error_string(
            ingest_edge_list(
                &input_path,
                dir.join(format!("utf8_{i}.fsg")),
                &IngestOptions::default(),
            )
            .unwrap_err(),
        );
        let expected = format!("parse error at line {line}: invalid UTF-8");
        assert_eq!(
            (io_err.as_str(), store_err.as_str()),
            (&*expected, &*expected)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
