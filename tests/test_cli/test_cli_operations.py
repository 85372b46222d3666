"""The query verbs are the operation table's: one per operation, each
answering what the query language (``repro query``) answers."""

import json
import re

import pytest

from repro.cli import main
from repro.core.workspace import load_workspace
from repro.observe.explain import DEFAULT_K
from repro.operations.table import OPERATIONS

#: The shadoop shell's names for the operations whose verb is not the
#: operation's own name.
SHELL_NAMES = {"range": "rangequery", "count": "rangecount"}
#: A value of each shape argument: the ``--window`` / ``--point`` flag
#: and the query line spell it the same way.
ARGUMENTS = {"window": "0,0,5e5,5e5", "point": "5e5,5e5"}
#: Point inputs by kind and file count (union reads polygons instead).
FILES = {
    ("heap", 1): ["pts"], ("indexed", 1): ["idx"],
    ("heap", 2): ["pts", "pts2"], ("indexed", 2): ["idx", "idx2"],
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ops") / "ws.pkl")
    for argv in (
        ["generate", "pts", "--n", "600", "--seed", "1"],
        ["generate", "pts2", "--n", "300", "--seed", "2"],
        ["generate", "polys", "--n", "40", "--shape", "polygon"],
        ["index", "pts", "idx", "--technique", "grid"],
        ["index", "pts2", "idx2", "--technique", "grid"],
        ["index", "polys", "pidx", "--technique", "grid"],
    ):
        assert main(["-w", path, *argv]) == 0
    return path


def inputs(name, kind):
    op = OPERATIONS[name]
    if name == "union":
        return ["polys" if kind == "heap" else "pidx"]
    return FILES[kind, op.files]


def cli(ws, capsys, *argv):
    capsys.readouterr()
    code = main(["-w", ws, *argv])
    out, err = capsys.readouterr()
    return code, out, err


def printed_rows(name, out):
    """The row count the CLI printed for ``name``'s answer."""
    lines = [line for line in out.splitlines() if not line.startswith("[")]
    if name == "knn":  # one line per neighbour
        return len(lines)
    if name in ("closestpair", "farthestpair"):  # the pair itself
        assert re.match(r"\w+ pair: .+ — .+ \(distance", lines[0]), lines
        return 2
    return int(re.search(r"\d+", lines[0]).group())


@pytest.mark.parametrize("name", list(OPERATIONS))
def test_every_operation_has_a_verb(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([SHELL_NAMES.get(name, name), "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for field in OPERATIONS[name].args:
        assert f"--{field}" in usage


@pytest.mark.parametrize("kind", ["heap", "indexed"])
@pytest.mark.parametrize("name", list(OPERATIONS))
def test_verb_answers_like_the_query_language(ws, capsys, name, kind):
    files = inputs(name, kind)
    op = OPERATIONS[name]
    flags = [
        part for field in op.args if field in ARGUMENTS
        for part in (f"--{field}", ARGUMENTS[field])
    ]
    text = " ".join([name, *files, *(ARGUMENTS[f] for f in op.args
                                     if f in ARGUMENTS)])
    code, out, err = cli(ws, capsys, SHELL_NAMES.get(name, name),
                         *files, *flags)
    status, served, served_err = cli(ws, capsys, "query", text)
    if status:
        # An input the operation cannot answer (closest pair and Voronoi
        # need an index) fails the same way on both paths.
        assert (code, err) == (status, served_err) and code == 1
        return
    assert code == 0, err
    response = json.loads(served)
    assert response["outcome"] == "served"
    assert printed_rows(name, out) == response["rows"]


@pytest.mark.parametrize("kind", ["heap", "indexed"])
def test_knnjoin_default_k_is_the_query_languages(ws, capsys, kind):
    left, right = FILES[kind, 2]
    code, out, _ = cli(ws, capsys, "knnjoin", left, right)
    assert code == 0
    rows, k = map(int, re.match(r"(\d+) rows, k=(\d+)", out).groups())
    sh = load_workspace(ws)
    service = sh.serve()
    try:
        response = service.query("t", f"knnjoin {left} {right}")
    finally:
        service.shutdown()
    assert rows == response.rows
    neighbours = {len(found) for _r, found in response.result.answer}
    assert k == DEFAULT_K and neighbours == {DEFAULT_K}
