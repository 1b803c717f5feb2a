"""
Property-based tests of the command-line contract on malformed input.

Each example starts from a valid state file and nodes file for one group,
breaks one of them (a wrong type, a boolean in place of an integer, NaN or
inf, a negative label, a wrong shape, a missing key, a non-object payload or
text that is not JSON) and runs ``groupwigner wigner`` on the pair: it must
exit 2 with exactly one ``error:`` line on stderr, no traceback and no
``--out`` file.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwigner import cli

_S = math.sqrt(0.5)

VALID = {
    "su2": {
        "state": {
            "group": "su2",
            "jmax_twice": 1,
            "blocks": [
                {"two_j": 0, "re": [[0.6]], "im": [[0.0]]},
                {
                    "two_j": 1,
                    "re": [[0.8, 0.0], [0.0, 0.0]],
                    "im": [[0.0, 0.0], [0.0, 0.0]],
                },
            ],
        },
        "nodes": {"euler": [[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]]},
    },
    "so2": {
        "state": {
            "group": "so2", "m_min": -1, "re": [0.6, 0.0, 0.0], "im": [0.0, 0.8, 0.0]
        },
        "nodes": {"theta": [0.0, 1.0], "m": [-1, 2]},
    },
    "cartesian": {
        # dq = 1, so the trapezoid norm is the sum of the interior samples
        "state": {
            "group": "cartesian",
            "half_width": 4.0,
            "periodic": False,
            "re": [0.0, 0.0, 0.0, _S, _S, 0.0, 0.0, 0.0],
            "im": [0.0] * 8,
        },
        "nodes": {"q": [0.0, 1.0], "p": [0.0, 0.5]},
    },
}

_NAN, _INF = float("nan"), float("inf")
_JUNK = [None, "x", {}, _NAN]

# replacements that are malformed wherever a field of that kind sits
BAD = {
    "count": [True, False, -1, -2, 1.5, "1", None, _NAN, _INF, [1], {}],
    "integer": [True, False, 2.5, "1", None, _NAN, _INF, [1], {}],
    "real": [True, False, "0.5", None, _NAN, _INF, -_INF, [0.5], {}],
    "positive": [True, "4.0", None, _NAN, _INF, 0.0, -4.0, [4.0], {}],
    "flag": ["false", "true", 0, 1, None, _NAN, [False]],
    "group": ["SU2", "so3", "", 1, None, True],
    "samples": [*_JUNK, True, 1.0, []],
    "nodes": [*_JUNK, True, 1.0],
    "list": [*_JUNK, True, 1.0, {"two_j": 0}],
}

# (path into the payload, kind of the field there)
SITES = {
    ("su2", "state"): [
        (("group",), "group"),
        (("jmax_twice",), "count"),
        (("blocks",), "list"),
        (("blocks", 0), "list"),
        (("blocks", 1, "two_j"), "count"),
        (("blocks", 1, "re"), "samples"),
        (("blocks", 0, "im"), "samples"),
        (("blocks", 1, "re", 0, 1), "real"),
        (("blocks", 1, "im", 1, 0), "real"),
        (("blocks", 0, "re", 0, 0), "real"),
    ],
    ("su2", "nodes"): [
        (("euler",), "nodes"),
        (("euler", 0), "nodes"),
        (("euler", 1, 2), "real"),
    ],
    ("so2", "state"): [
        (("group",), "group"),
        (("m_min",), "integer"),
        (("re",), "samples"),
        (("im",), "samples"),
        (("re", 0), "real"),
        (("im", 2), "real"),
    ],
    ("so2", "nodes"): [
        (("theta",), "nodes"),
        (("m",), "nodes"),
        (("theta", 1), "real"),
        (("m", 0), "integer"),
    ],
    ("cartesian", "state"): [
        (("group",), "group"),
        (("half_width",), "positive"),
        (("periodic",), "flag"),
        (("re",), "samples"),
        (("im",), "samples"),
        (("re", 3), "real"),
        (("im", 0), "real"),
    ],
    ("cartesian", "nodes"): [
        (("q",), "nodes"),
        (("p",), "nodes"),
        (("q", 0), "real"),
        (("p", 1), "real"),
    ],
}

# shapes that break a payload's documented layout
RESHAPE = {
    ("su2", "state"): [("blocks", 1, "re"), ("blocks", 1, "im", 0)],
    ("su2", "nodes"): [("euler", 0)],
    ("so2", "state"): [("re",), ("im",)],
    ("so2", "nodes"): [],
    ("cartesian", "state"): [("re",), ("im",)],
    ("cartesian", "nodes"): [],
}

# keys a payload cannot do without
REQUIRED = {
    ("su2", "state"): [
        ("group",), ("jmax_twice",), ("blocks",),
        ("blocks", 1, "two_j"), ("blocks", 1, "re"), ("blocks", 0, "im"),
    ],
    ("su2", "nodes"): [("euler",)],
    ("so2", "state"): [("group",), ("m_min",), ("re",), ("im",)],
    ("so2", "nodes"): [("theta",), ("m",)],
    ("cartesian", "state"): [("group",), ("half_width",), ("re",), ("im",)],
    ("cartesian", "nodes"): [("q",), ("p",)],
}


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


def _parent(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload, path[-1]


@st.composite
def broken_files(draw, group):
    """Texts of a (state file, nodes file) pair with exactly one of them broken."""
    which = draw(st.sampled_from(["state", "nodes"]))
    site = (group, which)
    files = copy.deepcopy(VALID[group])
    payload = files[which]
    options = ["replace", "delete", "top", "text"] + ["reshape"] * bool(RESHAPE[site])
    how = draw(st.sampled_from(options))
    if how == "replace":
        path, kind = draw(st.sampled_from(SITES[site]))
        owner, key = _parent(payload, path)
        owner[key] = draw(st.sampled_from(BAD[kind]))
    elif how == "delete":
        owner, key = _parent(payload, draw(st.sampled_from(REQUIRED[site])))
        del owner[key]
    elif how == "reshape":
        owner, key = _parent(payload, draw(st.sampled_from(RESHAPE[site])))
        owner[key] = owner[key][:-1]
    elif how == "top":
        files[which] = draw(st.sampled_from([[], [payload], 1, "x", None, True]))
    texts = {name: json.dumps(p) for name, p in files.items()}
    if how == "text":
        chars = st.characters(exclude_categories=("Cs",))
        texts[which] = draw(st.text(chars, max_size=20).filter(_not_json))
    return texts["state"], texts["nodes"]


def _run_wigner(group, state_text, nodes_text):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("state", state_text), ("nodes", nodes_text)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        out = os.path.join(tmp, "out.json")
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["wigner", "--group", group, "--jsum", "0", "--out", out,
                paths["state"], paths["nodes"]]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), os.path.exists(out)


@pytest.mark.parametrize("group", sorted(VALID))
def test_valid_files_export(group):
    # the unbroken files are accepted, so each rejection below is the
    # mutation's doing
    texts = {name: json.dumps(p) for name, p in VALID[group].items()}
    code, out, err, wrote = _run_wigner(group, texts["state"], texts["nodes"])
    assert (code, out, err, wrote) == (0, "", "", True)


@pytest.mark.parametrize("group", sorted(VALID))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_files_exit_2(group, data):
    state_text, nodes_text = data.draw(broken_files(group))
    code, out, err, wrote = _run_wigner(group, state_text, nodes_text)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert out == ""
    assert not wrote
