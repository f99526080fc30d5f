"""Every file writer goes through the one function that opens a file for
writing, ``corpus.write_text``, which encodes the whole text before it opens
the target; and every writer with a reader either refuses a value before it
opens the file, leaving the target as it was, or writes what the reader
returns equal."""

import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nudgesim
from nudgesim import corpus
from nudgesim.embedding import SourceVectors, load_vectors, save_vectors
from nudgesim.groundtruth import (
    KNOWN_FLAGS,
    LEANING_CATEGORIES,
    PROVENANCE_VALUES,
    SourceLabels,
    SourceScore,
    read_labels_csv,
    read_scores_csv,
    write_labels_csv,
    write_scores_csv,
)
from nudgesim.nudge import Persona, load_personas, write_personas

# ---------------------------------------------------------------- one write path

# an open() mode that writes: w, a, x or + among mode letters
_WRITE_MODE = re.compile(r"[rbt]*[wax+][rwaxbt+]*")


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for writing or writes one by a path
    method: ``open(..., "w")``, ``x.open("a")``, ``x.write_text(...)``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)  # write_text(path, text) is the helper itself
    modes = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    return name == "open" and any(
        isinstance(m, ast.Constant) and isinstance(m.value, str) and _WRITE_MODE.fullmatch(m.value)
        for m in modes
    )


def test_the_library_writes_files_only_through_write_text():
    offenders = []
    for path in sorted(Path(nudgesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "corpus.py":
            helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "write_text")
            allowed = {id(n) for n in ast.walk(helper)}
        offenders += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed and _writes(node)
        ]
    assert offenders == []


def test_write_guard_sees_each_way_to_write():
    def seen(source):
        return _writes(ast.parse(source).body[0].value)

    for source in ('open(p, "w")', 'open(p, mode="ab")', 'io.open(p, "x")', 'p.open("r+")',
                   "p.write_text(s)", "Path(p).write_bytes(b)"):
        assert seen(source), source
    for source in ("open(p)", 'open(p, "rb")', "write_text(p, s)", 'open(p, encoding="utf-8")'):
        assert not seen(source), source


# ---------------------------------------------------------------- refused before opened

PRIOR = b"a previous whole file\n"


def _prior(tmp_path) -> Path:
    """A target that already holds :data:`PRIOR`, alone in its directory."""
    path = tmp_path / "target"
    path.write_bytes(PRIOR)
    return path


def _untouched(path: Path) -> None:
    assert path.read_bytes() == PRIOR
    assert os.listdir(path.parent) == [path.name]  # nothing else written


def test_scores_with_a_lone_surrogate_leave_the_previous_file(tmp_path):
    # rows are sorted, so 'b\ud800' is on line 3, after the header and 'a'
    path = _prior(tmp_path)
    scores = {s: SourceScore(s, 0.5, 0.0, "labeled") for s in ("a", "b\ud800")}
    with pytest.raises(ValueError) as exc:
        write_scores_csv(scores, path)
    assert str(exc.value) == f"{path}:3: '\\ud800' is a lone surrogate, which is not UTF-8"
    _untouched(path)


def test_vectors_parameter_with_a_lone_surrogate_leaves_the_previous_file(tmp_path):
    path = _prior(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: '\\\\ud800' is a lone surrogate"):
        save_vectors(SourceVectors(dims=1, vectors={"a": np.ones(1)}, params={"y": "\ud800"}), path)
    _untouched(path)


def test_write_text_makes_the_directory_and_follows_the_umask(tmp_path):
    path = tmp_path / "new" / "deeper" / "out.txt"
    old = os.umask(0o027)
    try:
        corpus.write_text(path, "é\n")
        with open(tmp_path / "by_open", "w", encoding="utf-8") as fh:
            fh.write("é\n")
    finally:
        os.umask(old)
    assert path.read_bytes() == "é\n".encode()
    assert path.stat().st_mode & 0o777 == 0o640
    assert path.stat().st_mode == (tmp_path / "by_open").stat().st_mode  # as open(path, "w") makes it
    assert os.listdir(tmp_path / "new" / "deeper") == ["out.txt"]


def test_write_text_writes_every_byte_of_short_writes(tmp_path, monkeypatch):
    # os.write may put down fewer bytes than it is given; write_text goes on
    # until the whole text is in the file
    calls = []
    real_write = os.write

    def one_byte(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:1]))

    monkeypatch.setattr(os, "write", one_byte)
    path = tmp_path / "out.txt"
    path.write_bytes(b"a longer previous file than the new one\n")
    text = "é,ü\n€\n"
    corpus.write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert calls == list(range(len(text.encode("utf-8")), 0, -1))


# ---------------------------------------------------------------- round trips

# any code point, lone surrogates included: a writer must refuse those
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_RATING = st.none() | st.sampled_from(sorted(LEANING_CATEGORIES))
_FLAGS = st.frozensets(st.sampled_from(sorted(KNOWN_FLAGS)))
_LABELS = st.builds(
    SourceLabels, source=_TEXT.filter(bool), newsguard=st.none() | st.floats(0.0, 100.0),
    os_flags=_FLAGS, mbfc_flags=_FLAGS, allsides=_RATING, buzzfeed=_RATING, mbfc_bias=_RATING,
)


def _score(source, quality, leaning, provenance):
    # a labeled or imputed score has both fields
    return SourceScore(source, quality, leaning, "unavailable" if None in (quality, leaning) else provenance)


_SCORE = st.builds(
    _score, _TEXT, st.none() | st.floats(0.0, 1.0), st.none() | st.floats(-1.0, 1.0),
    st.sampled_from(PROVENANCE_VALUES),
)
_VECTORS = st.integers(0, 3).flatmap(lambda dims: st.builds(
    SourceVectors,
    dims=st.just(dims),
    vectors=st.dictionaries(_TEXT, st.lists(st.floats(), min_size=dims, max_size=dims).map(np.array), max_size=3),
    params=st.dictionaries(_TEXT | st.just("dims"), _TEXT | st.sampled_from(["0", "1", "2", "02"]), max_size=3),
))
_PERSONA = st.builds(
    Persona, user_id=_TEXT, sources=st.lists(_TEXT, max_size=3).map(tuple), L=st.integers() | st.booleans()
)
REFUSED = object()


def _round_trip(tmp_path, write, read, value):
    """What ``read`` returns from the file ``write`` made of ``value`` over a
    previous file, or REFUSED if ``write`` raised ValueError, which must
    leave the previous file as it was."""
    path = _prior(tmp_path)
    try:
        write(value, path)
    except ValueError:
        _untouched(path)
        return REFUSED
    assert os.listdir(tmp_path) == [path.name]
    return read(path)


_SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(labels=st.lists(_LABELS, max_size=4))
@example(labels=[SourceLabels("a"), SourceLabels("a", newsguard=50.0)])
def test_labels_csv_round_trips_or_is_refused(tmp_path, labels):
    got = _round_trip(tmp_path, write_labels_csv, read_labels_csv, labels)
    assert got is REFUSED or got == sorted(labels, key=lambda item: item.source)


@_SETTINGS
@given(scores=st.lists(_SCORE, max_size=4).map(lambda s: {sc.source: sc for sc in s})
       | st.dictionaries(_TEXT, _SCORE, max_size=3))
@example(scores={"a": SourceScore("b", None, None, "unavailable")})
def test_scores_csv_round_trips_or_is_refused(tmp_path, scores):
    got = _round_trip(tmp_path, write_scores_csv, read_scores_csv, scores)
    assert got is REFUSED or got == scores


@_SETTINGS
@given(vectors=_VECTORS)
@example(vectors=SourceVectors(dims=1, vectors={}, params={}))
@example(vectors=SourceVectors(dims=0, vectors={"a": np.zeros(0)}, params={}))
@example(vectors=SourceVectors(dims=1, vectors={"a": np.ones(1)}, params={"dims": "2"}))
def test_vectors_tsv_round_trips_or_is_refused(tmp_path, vectors):
    got = _round_trip(tmp_path, save_vectors, load_vectors, vectors)
    if got is not REFUSED:
        assert (got.dims, got.params) == (vectors.dims, vectors.params)
        assert {s: v.tobytes() for s, v in got.vectors.items()} == {
            s: v.tobytes() for s, v in vectors.vectors.items()
        }


# a vectors.tsv text: header parts, then rows of a source id and n components
_NUMBER = st.floats(allow_nan=False).map(repr) | st.sampled_from(["1", "-0", "1e-320", " 2", "1_0", "\u0662", "x"])
_VECTORS_TEXT = st.integers(1, 2).flatmap(lambda n: st.builds(
    lambda parts, rows: "\t".join(["#vectors v1", *parts]) + "\n" + "".join("\t".join(row) + "\n" for row in rows),
    st.lists(st.sampled_from(["dims=1", "dims=2", "p=", "a=b=c", "=1", "x"]) | st.builds("{}={}".format, _TEXT, _TEXT),
             max_size=2),
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]) | _TEXT, *[_NUMBER] * n), max_size=3,
             unique_by=lambda row: row[0]),
))


@_SETTINGS
@given(text=_VECTORS_TEXT)
@example(text="#vectors v1\tdims=+2\na\t1.0\t0.5\n")
@example(text="#vectors v1\tdims= 2\na\t1.0\t0.5\n")
@example(text="#vectors v1\tdims=02\na\t1.0\t0.5\n")
@example(text="#vectors v1\tdims=\u0662\na\t1.0\t0.5\n")
def test_every_vectors_tsv_that_loads_is_written_back_and_loads_equal(tmp_path, text):
    # the reader and the writer hold one header rule: whatever load_vectors
    # accepts, save_vectors writes, and it loads back equal
    path = tmp_path / "vectors.tsv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        loaded = load_vectors(path)
    except ValueError:
        return
    save_vectors(loaded, path)
    again = load_vectors(path)
    assert (again.dims, again.params) == (loaded.dims, loaded.params)
    assert {s: v.tobytes() for s, v in again.vectors.items()} == {s: v.tobytes() for s, v in loaded.vectors.items()}


@_SETTINGS
@given(personas=st.lists(_PERSONA, max_size=3))
@example(personas=[Persona("", ("a",), 2)])
@example(personas=[Persona("x", ("a",), 2), Persona("x", (), 1)])
def test_personas_json_round_trips_or_is_refused(tmp_path, personas):
    got = _round_trip(tmp_path, write_personas, load_personas, personas)
    assert got is REFUSED or got == personas
