"""Every file reader either parses arbitrary bytes or raises ValueError or
OSError naming the path: no other exception, and no message without the
file it is about."""

import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nudgesim import synthetic
from nudgesim.corpus import load_articles
from nudgesim.embedding import SourceVectors, load_vectors, save_vectors
from nudgesim.graph import CsnGraph, load_graph, save_graph
from nudgesim.groundtruth import (
    SourceScore,
    read_labels_csv,
    read_scores_csv,
    write_labels_csv,
    write_scores_csv,
)
from nudgesim.nudge import load_personas, write_personas


def _vectors():
    return SourceVectors(dims=2, vectors={"a": np.array([0.5, -1.0]), "b": np.zeros(2)}, params={"dims": "2"})


def _scores():
    return {
        "a": SourceScore("a", 0.25, -0.5, "labeled"),
        "b": SourceScore("b", None, None, "unavailable"),
    }


# reader -> writer of a small valid file, the seed that the fuzzer mutates
READERS = {
    "load_articles": (load_articles, lambda p: shutil.copyfile(synthetic.fixture_articles_path(), p)),
    "load_graph": (load_graph, lambda p: save_graph(synthetic.two_cluster_graph(), p)),
    "load_vectors": (load_vectors, lambda p: save_vectors(_vectors(), p)),
    "read_scores_csv": (read_scores_csv, lambda p: write_scores_csv(_scores(), p)),
    "read_labels_csv": (read_labels_csv, lambda p: write_labels_csv(synthetic.world_labels()[:3], p)),
    "load_personas": (load_personas, lambda p: write_personas(synthetic.WORLD_PERSONAS[:2], p)),
}


def _bytes(max_size: int):
    """Byte strings drawn as lists of ints: Hypothesis then holds no bytes
    choice that its engine cache could compare with an int, which raises
    BytesWarning under ``python -bb``."""
    return st.lists(st.integers(0, 255), max_size=max_size).map(bytes)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.floats(0.0, 1.0),
        st.integers(0, 6),
        _bytes(6) | st.sampled_from([b"\xff", b"\t", b"\n", b",", b'"', b"=", b"nan", b"1e999", b"-"]),
    ),
    max_size=3,
)


def _mutate(data: bytes, edits) -> bytes:
    for kind, where, width, piece in edits:
        at = int(where * len(data))
        if kind == "insert":
            data = data[:at] + piece + data[at:]
        elif kind == "replace":
            data = data[:at] + piece + data[at + width :]
        else:
            data = data[:at] + data[at + width :]
    return data


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS, noise=st.none() | _bytes(24))
def test_reader_parses_or_names_the_path(tmp_path, name, edits, noise):
    reader, write = READERS[name]
    seed = tmp_path / "seed"
    write(seed)
    path = tmp_path / "input"
    path.write_bytes(_mutate(seed.read_bytes(), edits) if noise is None else noise)
    try:
        reader(path)
    except (ValueError, OSError) as exc:
        assert str(path) in str(exc)


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


def _value(result):
    """``result`` in a form that ``==`` compares by value."""
    if isinstance(result, CsnGraph):
        return result.raw_counts, result.article_counts
    if isinstance(result, SourceVectors):
        return result.dims, result.params, {s: v.tolist() for s, v in result.vectors.items()}
    return result


def test_readers_skip_one_leading_byte_order_mark(tmp_path):
    for name, (reader, write) in READERS.items():
        plain, marked = tmp_path / name, tmp_path / f"{name}.bom"
        write(plain)
        marked.write_bytes(BOM + plain.read_bytes())
        assert _value(reader(marked)) == _value(reader(plain)), name


def test_bad_byte_after_byte_order_mark_names_its_offset_in_the_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(BOM + b"source,qua\xfflity,leaning,provenance\n")
    with pytest.raises(ValueError) as exc:
        read_scores_csv(path)
    assert str(exc.value) == f"{path}:1: byte 0xff at offset 13 is not UTF-8"


# ---------------------------------------------------------------- line numbers


def test_csv_names_the_line_where_a_record_starts(tmp_path):
    # a quoted field may hold a line break, so a record may span lines: the
    # line named is the record's first, for a bad field and for csv.Error
    header = "source,quality,leaning,provenance\n"
    text = header + '"a\nb",0.5,0.0,labeled\nc,2.0,0.0,labeled\n'
    assert _refused(tmp_path, "scores.csv", text, read_scores_csv) == "PATH:4: quality 2.0 outside [0, 1]"
    text = header + '"a\nb",0.5,0.0,labeled\n"c\n' + "x" * 140_000 + '",0.5,0.0,labeled\n'
    assert _refused(tmp_path, "scores.csv", text, read_scores_csv).startswith("PATH:4: field larger than field limit")


def test_bad_byte_names_the_line_every_reader_counts(tmp_path):
    # load_graph splits lines at \n, \r\n and \r; a byte that is not UTF-8
    # is named on the same line as any other fault there
    path = tmp_path / "csn.tsv"
    lines = ["#csn v1", "#node\ta\t2", "#node\tb\t4", "#node\tc\t1"]
    for newline in ("\n", "\r\n", "\r"):
        path.write_bytes(newline.join([*lines, "a\tb\t2\t0_5", ""]).encode())
        with pytest.raises(ValueError, match="^[^:]*:5: malformed line"):
            load_graph(path)
        path.write_bytes(newline.join([*lines, "a\tb\t2\t0.5\udcff", ""]).encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: byte 0xff at offset"):
            load_graph(path)


# ---------------------------------------------------------------- number text

# number text that float() or int() takes as a number but no writer writes:
# '_' between digits, a non-ASCII digit, a leading '+', surrounding space
_LOOSE = "must be printable ASCII, with no space, '_' or leading '+'"


def _refused(tmp_path, name, text, reader):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        reader(path)
    return str(caught.value).replace(str(path), "PATH")


@pytest.mark.parametrize("quality, leaning, number", [
    ("0_1", "0.5", "0_1"), ("0.1", "٠.5", "٠.5"), ("0.1", " 0.5", " 0.5"), ("+0.1", "0.5", "+0.1"),
])
def test_scores_csv_refuses_loose_number_text(tmp_path, quality, leaning, number):
    text = f"source,quality,leaning,provenance\na,{quality},{leaning},labeled\n"
    assert _refused(tmp_path, "scores.csv", text, read_scores_csv) == f"PATH:2: number {number!r} {_LOOSE}"


@pytest.mark.parametrize("newsguard", ["5_0", "٥٠", "50 ", "+50"])
def test_labels_csv_refuses_loose_number_text(tmp_path, newsguard):
    text = f"source,newsguard,os_flags,mbfc_flags,allsides,buzzfeed,mbfc_bias\na,{newsguard},,,,,\n"
    assert _refused(tmp_path, "labels.csv", text, read_labels_csv) == f"PATH:2: number {newsguard!r} {_LOOSE}"


@pytest.mark.parametrize("lines, number", [
    ("#node\ta\t1_0\n", "1_0"), ("#node\ta\t2\n#node\tb\t ٤\n", " ٤"),
    ("#node\ta\t2\n#node\tb\t4\na\tb\t+2\t0.5\n", "+2"), ("#node\ta\t2\n#node\tb\t4\na\tb\t2\t0_5\n", "0_5"),
    ("#node\ta\t2\n#node\tb\t4\na\tb\t2\t0.5 \n", "0.5 "),
])
def test_csn_tsv_refuses_loose_number_text(tmp_path, lines, number):
    lineno = lines.count("\n") + 1
    expected = f"PATH:{lineno}: malformed line (number {number!r} {_LOOSE})"
    assert _refused(tmp_path, "csn.tsv", "#csn v1\n" + lines, load_graph) == expected


@pytest.mark.parametrize("component", ["1_0", "\u0662", " 2", "2 ", "2\u00a0", "+2"])
def test_vectors_tsv_refuses_loose_number_text(tmp_path, component):
    text = f"#vectors v1\na\t1.0\t0.5\nb\t0.5\t{component}\n"
    assert _refused(tmp_path, "vectors.tsv", text, load_vectors) == f"PATH:3: number {component!r} {_LOOSE}"
    # the forms the writer writes still load, an exponent's sign included
    path = tmp_path / "written.tsv"
    path.write_text("#vectors v1\na\t1e+20\t-0.5\nb\t2.5e-05\t0.0\n", encoding="utf-8")
    assert load_vectors(path).vectors["a"].tolist() == [1e20, -0.5]
