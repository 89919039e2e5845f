import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepit.circuits import CircuitBuilder, save_circuit
from conepit.cli import run
from conepit.fields import Field

Q = Field.rationals()
FP = Field.default_prime()


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def zero_circuit(tmp_path):
    b = CircuitBuilder(FP, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1))])
    parts = [
        (FP.of(1), b.pow(s, 2)),
        (FP.of(-1), b.pow(b.input(0), 2)),
        (FP.of(-2), b.mul([b.input(0), b.input(1)])),
        (FP.of(-1), b.pow(b.input(1), 2)),
    ]
    path = tmp_path / "zero.json"
    save_circuit(b.build(b.add(parts)), str(path))
    return str(path)


@pytest.fixture
def square_circuit(tmp_path):
    b = CircuitBuilder(Q, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1))])
    path = tmp_path / "square.json"
    save_circuit(b.build(b.pow(s, 2)), str(path))
    return str(path)


def test_cones_example():
    code, out, _ = invoke(["cones", "--n", "2", "--k", "4"])
    assert code == 0
    assert out == "count=8\n"


def test_cones_list_and_json():
    code, out, _ = invoke(["cones", "--n", "1", "--k", "3", "--list"])
    assert code == 0
    assert out.splitlines() == ["count=3", "1", "x1", "x1^2"]
    code, out, _ = invoke(["--json", "cones", "--n", "1", "--k", "3"])
    assert json.loads(out) == {"count": 3, "vectors": [[0], [1], [2]]}


@pytest.mark.parametrize(
    "n, code, out", [("2000", 0, "count=1\n"), ("99999999999", 3, ""), (str(10**40), 3, "")], ids=["2000", "1e11", "1e40"]
)
def test_cones_at_large_arity(n, code, out):
    got_code, got_out, err = invoke(["cones", "--n", n, "--k", "1"])
    assert (got_code, got_out) == (code, out)
    assert "Traceback" not in err and (code == 0 or err.startswith("error: "))


# x1^(10^9) and the diagonals (1 + x1)^4000 and (1 + x1)^(10^9): the first
# extraction of each needs (d + 1)^2 past extraction.EXTRACTION_GUARD, so it
# is refused before any monomial, node or weight row is built.  bfpit on
# x1^20000 has a grid of 20001 points but a 20001^2 interpolation table, past
# circuits.DENSE_EXPAND_GUARD.
HUGE_POWER = (
    '{"field": "p:2305843009213693951", "arity": 1, "gates": [{"id": 0, "kind": "input", "var": 0}, '
    '{"id": 1, "kind": "pow", "children": [0], "exp": 1000000000}], "output": 1}'
)
HIGH_POWER = HUGE_POWER.replace('"exp": 1000000000', '"exp": 20000')
HIGH_DIAGONAL = '{"field": "p:2305843009213693951", "arity": 1, "terms": [{"c": "1", "const": "1", "coeffs": ["1"], "d": 4000}]}'
HUGE_DIAGONAL = HIGH_DIAGONAL.replace('"d": 4000', '"d": 1000000000')


@pytest.mark.parametrize(
    "argv, text",
    [
        (["pit", "--k", "2", "--circuit"], HUGE_POWER),
        (["coef", "--monomial", "x1", "--circuit"], HUGE_POWER),
        (["diag-pit", "--diag"], HIGH_DIAGONAL),
        (["diag-pit", "--diag"], HUGE_DIAGONAL),
        (["bfpit", "--circuit"], HIGH_POWER),
    ],
    ids=["pit", "coef", "diag-pit", "diag-pit-1e9", "bfpit"],
)
def test_extraction_past_the_guard_is_a_precondition_error(tmp_path, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = invoke(argv + [str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pit_zero_exit_code(zero_circuit):
    code, out, _ = invoke(["pit", "--circuit", zero_circuit, "--k", "8"])
    assert (code, out) == (0, "ZERO\n")


def test_pit_nonzero_exit_code(square_circuit):
    code, out, _ = invoke(["pit", "--circuit", square_circuit, "--k", "4"])
    assert code == 1
    assert out.startswith("NONZERO witness=x2^2 coeff=1")


def test_bfpit_and_szpit(zero_circuit):
    assert invoke(["bfpit", "--circuit", zero_circuit])[0] == 0
    code, out, _ = invoke(["szpit", "--circuit", zero_circuit, "--trials", "4", "--seed", "1"])
    assert (code, out) == (0, "ZERO\n")


def test_coef(square_circuit):
    code, out, _ = invoke(["coef", "--circuit", square_circuit, "--monomial", "x1*x2"])
    assert (code, out) == (0, "2\n")


def test_cone_closed_example(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"arity": 2, "vectors": [[2, 1], [0, 3]]}')
    code, out, _ = invoke(["cone-closed", "--set", str(path)])
    assert code == 0
    assert out == "A={(0,0),(1,0)} rank=2 cone_closed=true\n"


def test_design_rendering():
    code, out, _ = invoke(["design", "--l", "4", "--n", "3", "--d", "2"])
    assert code == 0
    assert out.splitlines() == ["1 2 3", "1 2 4", "1 3 4", "2 3 4"]


def test_annihilate(tmp_path):
    path = tmp_path / "hsg.json"
    path.write_text('{"field": "q", "degree": 2, "polys": [["0", "1"], ["0", "0", "1"]]}')
    code, out, _ = invoke(["annihilate", "--hsg", str(path)])
    assert code == 0
    assert out.startswith("degree=10 g=")


def test_fischer(tmp_path):
    path = tmp_path / "terms.json"
    path.write_text(
        '{"field": "q", "arity": 2, "terms": '
        '[[[{"exp": [1, 0], "coef": "1"}], [{"exp": [0, 1], "coef": "1"}]]]}'
    )
    code, out, _ = invoke(["fischer", "--terms", str(path)])
    assert code == 0
    assert out.splitlines() == ["c=1/4 h=x2 + x1", "c=-1/4 h=-1*x2 + x1"]


def test_kron_round_trips_as_circuit(tmp_path, square_circuit):
    code, out, _ = invoke(["kron", "--circuit", square_circuit, "--block", "2"])
    assert code == 0
    from conepit.circuits import parse

    K = parse(out)
    assert K.arity == 1


def test_shift_basis(tmp_path):
    path = tmp_path / "vp.json"
    path.write_text(
        '{"field": "q", "arity": 2, "dim": 2, "terms": ['
        '{"exp": [0, 0], "coef": ["1", "0"]}, '
        '{"exp": [1, 0], "coef": ["0", "1"]}, '
        '{"exp": [1, 1], "coef": ["1", "1"]}]}'
    )
    code, out, _ = invoke(["shift-basis", "--vectorpoly", str(path), "--weights", "1,3"])
    assert (code, out) == (0, "A={(0,0),(1,0)} rank=2 cone_closed=true\n")


def test_derivdim(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"field": "q", "arity": 2, "terms": [{"exp": [1, 1], "coef": "1"}]}')
    code, out, _ = invoke(["derivdim", "--poly", str(path)])
    assert (code, out) == (0, "dim=4\n")


def test_usage_errors(tmp_path):
    assert invoke(["pit", "--circuit", "/does/not/exist", "--k", "2"])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert invoke(["pit", "--circuit", str(bad), "--k", "2"])[0] == 2
    assert invoke(["no-such-command"])[0] == 2


@pytest.mark.parametrize(
    "argv, text",
    [
        (["diag-pit", "--diag"], "[1, 2]"),
        (["annihilate", "--hsg"], "[1, 2]"),
        (["shift-basis", "--weights", "1", "--vectorpoly"], "[1, 2]"),
        (["pit", "--k", "2", "--circuit"], '{"field": "q", "arity": 1, "gates": [{"id": 0, "kind": "input", "var": "a"}], "output": 0}'),
    ],
)
def test_malformed_documents_are_usage_errors(tmp_path, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = invoke(argv + [str(path)])
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.startswith("error: ")


GATES = '[{"id": 0, "kind": "input", "var": 0}, {"id": 1, "kind": "pow", "children": [0], "exp": 2}]'
DIAG_TERM = '{"c": "1", "const": "1", "coeffs": ["1", "2"], "d": 2}'


@pytest.mark.parametrize(
    "argv, text",
    [
        (["diag-pit", "--diag"], '{"field": "p:7", "arity": 2, "terms": [' + DIAG_TERM.replace('"d": 2', '"d": 2.7') + "]}"),
        (["diag-pit", "--diag"], '{"field": "p:7", "arity": 2, "terms": [' + DIAG_TERM.replace('"d": 2', '"d": true') + "]}"),
        (["diag-pit", "--diag"], '{"field": "p:7", "arity": 2, "terms": [' + DIAG_TERM.replace('["1", "2"]', '"12"') + "]}"),
        (["diag-pit", "--diag"], '{"field": "p:7", "arity": -1, "terms": [' + DIAG_TERM + "]}"),
        (["diag-pit", "--diag"], '{"field": "p:7", "arity": 2, "terms": {}}'),
        (["diag-pit", "--diag"], '{"field": 7, "arity": 2, "terms": []}'),
        (["pit", "--k", "2", "--circuit"], '{"field": "q", "arity": -1, "gates": ' + GATES + ', "output": 1}'),
        (["pit", "--k", "2", "--circuit"], '{"field": "q", "arity": 1, "gates": ' + GATES.replace('"exp": 2', '"exp": 2.7') + ', "output": 1}'),
        (["pit", "--k", "2", "--circuit"], '{"field": "q", "arity": 1, "gates": ' + GATES.replace('"var": 0', '"var": false') + ', "output": 1}'),
        (["pit", "--k", "2", "--circuit"], '{"field": "q", "arity": 1, "gates": ' + GATES.replace('"id": 1', '"id": 1.0') + ', "output": 1}'),
        (["pit", "--k", "2", "--circuit"], '{"field": "q", "arity": 1, "gates": ' + GATES + ', "output": "1"}'),
        (["pit", "--k", "2", "--circuit"], '{"field": "q", "arity": 1, "gates": ' + GATES.replace("[0]", '"0"') + ', "output": 1}'),
        (["cone-closed", "--set"], '{"arity": 2, "vectors": [[1.5, 0]]}'),
        (["cone-closed", "--set"], '{"arity": 2, "vectors": "12"}'),
        (["derivdim", "--poly"], '{"field": "q", "arity": 2, "terms": [{"exp": [1, -1], "coef": "1"}]}'),
        (["shift-basis", "--weights", "1", "--vectorpoly"], '{"field": "q", "arity": 1, "dim": 1.0, "terms": [{"exp": [1], "coef": ["1"]}]}'),
        (["shift-basis", "--weights", "1", "--vectorpoly"], '{"field": "q", "arity": 1, "dim": 2, "terms": [{"exp": [1], "coef": "12"}]}'),
        (["annihilate", "--hsg"], '{"field": "q", "degree": true, "polys": [["0", "1"], ["0", "0", "1"]]}'),
        (["annihilate", "--hsg"], '{"field": "q", "degree": 2, "polys": ["01", "001"]}'),
        (["fischer", "--terms"], '{"field": "q", "arity": 2, "terms": [[[{"exp": [1, 0.5], "coef": "1"}]]]}'),
    ],
)
def test_integers_and_lists_are_strict(tmp_path, argv, text):
    # a float, a bool, a string or a negative number where the format has a
    # natural number, or a string or object where it has a list, is a
    # malformed document: before, int() and iteration read them
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = invoke(argv + [str(path)])
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err and err.startswith("error: ")


POLY = '{"field": "q", "arity": 2, "terms": [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": %s}]}'
CUBE = '{"field": "q", "arity": 1, "gates": [{"id": 0, "kind": "input", "var": 0}, {"id": 1, "kind": "const", "value": %s}, ' \
    '{"id": 2, "kind": "add", "children": [0, 1], "weights": [%s, "1"]}, {"id": 3, "kind": "pow", "children": [2], "exp": 3}], "output": 3}'


@pytest.mark.parametrize(
    "argv, text",
    [
        (["diag-pit", "--diag"], '{"field": "p:7", "arity": 2, "terms": [' + DIAG_TERM.replace('"c": "1"', '"c": 2.5') + "]}"),
        (["diag-pit", "--diag"], '{"field": "q", "arity": 2, "terms": [' + DIAG_TERM.replace('"c": "1", "const": "1"', '"c": true, "const": 0.1') + "]}"),
        (["diag-pit", "--diag"], '{"field": "q", "arity": 2, "terms": [' + DIAG_TERM.replace('"const": "1"', '"const": null') + "]}"),
        (["diag-pit", "--diag"], '{"field": "q", "arity": 2, "terms": [' + DIAG_TERM.replace('["1", "2"]', '["1", 2.0]') + "]}"),
        (["pit", "--k", "4", "--circuit"], CUBE % ("0.5", '"2"')),
        (["pit", "--k", "4", "--circuit"], CUBE % ('"1"', "false")),
        (["pit", "--k", "4", "--circuit"], CUBE % ('["1"]', '"2"')),
        (["derivdim", "--poly"], POLY % "1e3"),
        (["derivdim", "--poly"], POLY % "true"),
        (["fischer", "--terms"], '{"field": "q", "arity": 2, "terms": [[[{"exp": [1, 0], "coef": 0.5}]]]}'),
        (["shift-basis", "--weights", "1", "--vectorpoly"], '{"field": "q", "arity": 1, "dim": 2, "terms": [{"exp": [1], "coef": ["1", 1.5]}]}'),
        (["annihilate", "--hsg"], '{"field": "q", "degree": 2, "polys": [["0", 1.0], ["0", "0", "1"]]}'),
    ],
)
def test_scalars_are_strict(tmp_path, argv, text):
    # a float, a bool, null or a list where the format has a scalar is a
    # malformed document: before, Field.of read a float as its binary value
    # and a bool as 0 or 1
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = invoke(argv + [str(path)])
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err and err.startswith("error: ")


def test_scalars_may_be_json_integers(tmp_path):
    # a JSON integer reads as the decimal string of the same value
    outs = []
    for value in ('"-2"', "-2"):
        (tmp_path / "c.json").write_text(CUBE % (value, value))
        (tmp_path / "p.json").write_text(POLY % value)
        pit = invoke(["pit", "--k", "4", "--circuit", str(tmp_path / "c.json")])
        outs.append((pit[:2], invoke(["derivdim", "--poly", str(tmp_path / "p.json")])[:2]))
    assert outs[0] == outs[1]
    assert outs[0][0] == (1, "NONZERO witness=1 coeff=-8 tested=1 calls=4\n") and outs[0][1][0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cones", "--n", "0", "--k", "4"],
        ["cones", "--n", "2", "--k", "0"],
        ["pit", "--circuit", "{square}", "--k", "0"],
        ["szpit", "--circuit", "{square}", "--trials", "0", "--seed", "1"],
        ["szpit", "--circuit", "{square}", "--trials", "-1", "--seed", "1"],
        ["shift-basis", "--vectorpoly", "{vp}", "--weights", "1,a"],
        ["shift-basis", "--vectorpoly", "{vp}", "--weights=-1,2"],
        ["shift-basis", "--vectorpoly", "{vp}", "--weights", "-1,2"],
        ["szpit", "--circuit", "{square}", "--trials", "1", "--seed=--"],
        ["pit", "--circuit=--", "--k", "2"],
    ],
)
def test_bad_arguments_are_usage_errors(tmp_path, square_circuit, argv):
    vp = tmp_path / "vp.json"
    vp.write_text('{"field": "q", "arity": 2, "dim": 1, "terms": [{"exp": [1, 0], "coef": ["1"]}]}')
    code, out, err = invoke([a.format(square=square_circuit, vp=vp) for a in argv])
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.startswith("usage: ")


def test_precondition_errors(tmp_path):
    assert invoke(["design", "--l", "3", "--n", "3", "--d", "1"])[0] == 3
    hsg = tmp_path / "one.json"
    hsg.write_text('{"field": "q", "degree": 1, "polys": [["0", "1"]]}')
    assert invoke(["annihilate", "--hsg", str(hsg)])[0] == 3


def test_deterministic_output(zero_circuit):
    a = invoke(["pit", "--circuit", zero_circuit, "--k", "6"])
    b = invoke(["pit", "--circuit", zero_circuit, "--k", "6"])
    assert a == b
    c = invoke(["szpit", "--circuit", zero_circuit, "--trials", "3", "--seed", "5"])
    d = invoke(["szpit", "--circuit", zero_circuit, "--trials", "3", "--seed", "5"])
    assert c == d


def test_help_mentions_constructs():
    code, out, _ = invoke(["--help"])
    assert code == 0
    for needle in ("low-cone", "annihilating", "bounded-intersection", "cone-closed", "powers"):
        assert needle in out
    code, out, _ = invoke(["shift-basis", "--help"])
    assert code == 0 and "--weights" in out


# -- fuzz: every subcommand, arguments drawn from numbers, junk and documents

VALID_DOCS = {
    "circuit": [
        '{"field": "q", "arity": 2, "gates": [{"id": 0, "kind": "input", "var": 0}, '
        '{"id": 1, "kind": "input", "var": 1}, {"id": 2, "kind": "add", "children": [0, 1]}, '
        '{"id": 3, "kind": "pow", "children": [2], "exp": 2}], "output": 3}',
        '{"field": "p:2305843009213693951", "arity": 1, "gates": [{"id": 0, "kind": "input", "var": 0}, '
        '{"id": 1, "kind": "mul", "children": [0, 0]}, {"id": 2, "kind": "pow", "children": [0], "exp": 2}, '
        '{"id": 3, "kind": "add", "children": [1, 2], "weights": ["1", "-1"]}], "output": 3}',
    ],
    "set": ['{"arity": 2, "vectors": [[2, 1], [0, 3]]}'],
    "hsg": ['{"field": "q", "degree": 2, "polys": [["0", "1"], ["0", "0", "1"]]}'],
    "terms": ['{"field": "q", "arity": 2, "terms": [[[{"exp": [1, 0], "coef": "1"}], [{"exp": [0, 1], "coef": "1"}]]]}'],
    "vectorpoly": [
        '{"field": "q", "arity": 2, "dim": 2, "terms": [{"exp": [0, 0], "coef": ["1", "0"]}, '
        '{"exp": [1, 0], "coef": ["0", "1"]}, {"exp": [1, 1], "coef": ["1", "1"]}]}'
    ],
    "diag": [
        '{"field": "p:7", "arity": 2, "terms": [{"c": "1", "const": "1", "coeffs": ["1", "2"], "d": 2}]}',
        '{"field": "q", "arity": 1, "terms": [{"c": "1", "const": "0", "coeffs": ["1"], "d": 1}, '
        '{"c": "-1", "const": "0", "coeffs": ["1"], "d": 1}]}',
    ],
    "poly": ['{"field": "q", "arity": 2, "terms": [{"exp": [1, 1], "coef": "1"}]}'],
}
MALFORMED_DOCS = [
    "{broken",
    "",
    "null",
    "[1, 2]",
    "{}",
    '{"arity": "x"}',
    '{"field": "p:4", "arity": 1, "gates": [], "output": 0}',
    '{"field": "q", "arity": -1, "dim": 0, "terms": [], "vectors": [], "polys": []}',
    '{"field": "q", "arity": 1, "gates": [{"id": 0, "kind": "pow", "children": [0], "exp": 2}], "output": 0}',
    '{"field": "q", "arity": 2, "terms": [{"c": "1/0", "const": "0", "coeffs": ["1"], "d": -1}]}',
]
VERDICTS = {"pit", "bfpit", "szpit", "diag-pit"}
junk = st.sampled_from(["", "a", "-", "--", "1.5", "1e3", "0x10", "1,a", "-1,2", "x3^", "p:4", "é", "9" * 40])
numbers = st.integers(min_value=-1, max_value=6).map(str)
FIELDS = st.sampled_from(["q", "p:2", "p:7", "p:2147483647", "p:2305843009213693951"])
# option -> strategy for its value, the kind of document it reads, or None for a flag
COMMANDS = {
    "pit": {"--circuit": "circuit", "--k": numbers, "--field": FIELDS},
    "bfpit": {"--circuit": "circuit", "--field": FIELDS},
    "szpit": {"--circuit": "circuit", "--trials": numbers, "--seed": numbers, "--field": FIELDS},
    "coef": {"--circuit": "circuit", "--monomial": st.sampled_from(["1", "x1", "x2^2", "x1*x2", "x3"]), "--field": FIELDS},
    "cones": {"--n": numbers, "--k": numbers, "--dcap": numbers, "--list": None},
    "cone-closed": {"--set": "set"},
    "annihilate": {"--hsg": "hsg"},
    "design": {"--l": numbers, "--n": numbers, "--d": numbers},
    "fischer": {"--terms": "terms"},
    "kron": {"--circuit": "circuit", "--block": numbers},
    "shift-basis": {"--vectorpoly": "vectorpoly", "--weights": st.sampled_from(["1,3", "0,2", "2,1", "1", "1,2,3"])},
    "diag-pit": {"--diag": "diag"},
    "derivdim": {"--poly": "poly"},
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """kind -> paths of its valid documents, plus every path (malformed,
    valid for another kind, missing)."""
    root = tmp_path_factory.mktemp("fuzz")
    valid = {}
    for kind, texts in VALID_DOCS.items():
        valid[kind] = []
        for i, text in enumerate(texts):
            path = root / f"{kind}-{i}.json"
            path.write_text(text)
            valid[kind].append(str(path))
    malformed = []
    for i, text in enumerate(MALFORMED_DOCS):
        path = root / f"malformed-{i}.json"
        path.write_text(text)
        malformed.append(str(path))
    every = [p for paths in valid.values() for p in paths] + malformed + [str(root / "missing.json"), str(root)]
    return valid, every


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_cli_fuzz(documents, data):
    valid, every = documents
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = ["--json"] if data.draw(st.booleans()) else []
    argv.append(command)
    all_docs_valid = True
    for option, kind in COMMANDS[command].items():
        if data.draw(st.integers(0, 5)) == 0:  # mostly present, sometimes left out
            continue
        if kind is None:
            argv.append(option)
            continue
        if isinstance(kind, str):
            value = data.draw(st.one_of(st.sampled_from(valid[kind]), st.sampled_from(every)))
            all_docs_valid &= value in valid[kind]
        else:
            value = data.draw(st.one_of(kind, kind, junk))
        argv += [f"{option}={value}"] if data.draw(st.booleans()) else [option, value]
    code, _, err = invoke(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code == 1:
        assert command in VERDICTS and all_docs_valid, argv
