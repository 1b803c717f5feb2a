"""
End-to-end tests of the command-line interface: the verification batteries
for all three groups, table export against frozen values, overlap reports,
configuration precedence, determinism of the emitted reports, and the exit
code contract (0 pass, 1 tolerance failure, 2 usage/schema errors).
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupwigner import baselines, cli, grids, states, su2, wigner
from groupwigner.errors import ConfigError, SchemaError

SU2_FAST = ["--grid", "10x5x20", "--jmax", "1", "--jsum", "4"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_dump_bytes(out):
    # the streamed table writer must emit exactly what json.dump would; the
    # report names the first differing byte instead of diffing whole tables
    want = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    same = out == want
    at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), len(want))
    assert same, f"differs from json.dump at byte {at}: {out[at - 40 : at + 40]!r}"


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def uniform_state_payload():
    return {
        "group": "su2",
        "jmax_twice": 0,
        "blocks": [{"two_j": 0, "re": [[1.0]], "im": [[0.0]]}],
    }


def basis_state_payload(two_j, two_m, two_n):
    dim = two_j + 1
    re = [[0.0] * dim for _ in range(dim)]
    re[(two_j - two_m) // 2][(two_j - two_n) // 2] = 1.0
    return {
        "group": "su2",
        "jmax_twice": two_j,
        "blocks": [
            {
                "two_j": t,
                "re": re if t == two_j else [[0.0] * (t + 1)] * (t + 1),
                "im": [[0.0] * (t + 1)] * (t + 1),
            }
            for t in range(two_j + 1)
        ],
    }


# ---------------------------------------------------------------------------
# verify


def test_verify_su2_passes(capsys):
    code, out, _ = run_cli(["verify"] + SU2_FAST, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "orthogonality",
        "parseval",
        "momentum-marginal",
        "hermiticity",
        "covariance",
        "position-marginal",
        "overlap-symmetry",
        "reconstruction-variants",
        "traced-consistency",
    ]
    for check in report["checks"]:
        assert check["passed"] is True
        assert check["error"] <= check["tolerance"]
    assert report["metadata"]["command"] == "verify"
    assert report["metadata"]["config"]["group"] == "su2"
    assert report["metadata"]["config"]["grid_shape"] == [10, 5, 20]


def test_verify_so2_passes(capsys):
    code, out, _ = run_cli(["verify", "--group", "so2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "so2-pure-mode",
        "so2-weyl-duality",
        "so2-general-recovery",
        "so2-midpoint-covariance",
        "so2-marginals",
    }


def test_verify_cartesian_passes(capsys):
    code, out, _ = run_cli(["verify", "--group", "cartesian"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "cartesian-oscillator",
        "cartesian-hudson",
        "cartesian-marginals",
        "cartesian-eigenstate-limits",
    }


def test_verify_negative_control_coarse_grid(capsys):
    # a grid too coarse for the requested band must fail loudly with the
    # exception class recorded as provenance, never silently degrade
    code, out, _ = run_cli(["verify", "--grid", "4x2x4", "--jmax", "2"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    ortho = by_name["orthogonality"]
    assert ortho["passed"] is False
    assert ortho["provenance"] == "GridTooCoarse"
    assert ortho["error"] is None
    assert "exact" in ortho["detail"]


def test_verify_overlap_check_catches_single_counted_frequencies(monkeypatch):
    # overlap_trace counts every gamma frequency f > 0 twice, once for -f;
    # a label sum that counts it once must fail the overlap check, which
    # compares against the traced blocks at every Haar node
    config = cli.RunConfig()
    entry = cli._check_overlap(config, np.random.default_rng(config.seed))
    assert entry["error"] <= entry["tolerance"]
    original = wigner._label_terms

    def counted_once(wg, y1, y2, labels):
        y1 = y1.copy()
        y1[1:] *= 0.5
        return original(wg, y1, y2, labels)

    monkeypatch.setattr(wigner, "_label_terms", counted_once)
    entry = cli._check_overlap(config, np.random.default_rng(config.seed))
    assert entry["error"] > entry["tolerance"]


def test_verify_hermiticity_check_catches_a_perturbed_tensor(monkeypatch):
    # full blocks are Hermitian by construction, whatever their tensors hold;
    # the check compares them against the G x K sum of their definition, so
    # noise on every plane tensor must fail it
    config = cli.RunConfig()
    entry = cli._check_hermiticity(config, np.random.default_rng(config.seed))
    assert entry["error"] <= entry["tolerance"]
    original, noise = wigner._plane_tensor, np.random.default_rng(1)

    def noisy(*args):
        tensor = original(*args)
        return tensor + 1e-3 * noise.standard_normal(tensor.shape)

    monkeypatch.setattr(wigner, "_plane_tensor", noisy)
    entry = cli._check_hermiticity(config, np.random.default_rng(config.seed))
    assert entry["error"] > entry["tolerance"]


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--group", "so2", "--seed", "11"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    _, out3, _ = run_cli(["verify", "--group", "so2", "--seed", "12"], capsys)
    assert out3 != out1


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        ["verify", "--group", "cartesian", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# command=") for ln in meta)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("# "))
    assert lines[header_idx] == "name,error,tolerance,passed,provenance,detail"
    rows = lines[header_idx + 1 :]
    assert len(rows) == 4
    assert all(row.endswith("true,,") for row in rows)


def test_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--group", "so2", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["metadata"]["config"]["out"] == str(out_path)


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    # a missing parent directory, or a directory as the file
    out_path = tmp_path / target
    code, out, err = run_cli(
        ["verify", "--group", "so2", "--out", str(out_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_overlap_names_the_grid_flag_that_is_too_coarse(tmp_path, capsys):
    # the hemisphere grid is sized from the states, the group grid comes
    # from --grid: two band-7 states need band 14, past the default 14x7x28
    rng = np.random.default_rng(7)
    files = [str(tmp_path / f"{x}.json") for x in "ab"]
    for f in files:
        states.save_state(states.random_state(rng, 7), f)
    code, out, err = run_cli(["overlap", *files, "--jsum", "2", "--tol", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: GridTooCoarse: ") and err.count("\n") == 1
    assert "band 14" in err and "--grid 14x7x28 is exact only to band 12" in err
    assert "use --grid 16x8x32 or finer" in err
    assert grids.haar_grid(16, 8, 32).exactness_degree == 7
    code, out, _ = run_cli(
        ["overlap", *files, "--jsum", "2", "--tol", "1", "--grid", "16x8x32"], capsys
    )
    assert code == 0 and json.loads(out)["passed"] is True


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"group": "so2", "seed": 3, "format": "json"}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        ["verify", "--config", str(cfg), "--seed", "5"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["metadata"]["config"]["group"] == "so2"
    assert report["metadata"]["config"]["seed"] == 5


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}), encoding="utf-8")
    code, _, err = run_cli(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "no_such_key" in err
    code, _, err = run_cli(["verify", "--grid", "axbxc"], capsys)
    assert code == 2
    for flags in (["--tol", "-1"], ["--tol", "inf"], ["--tol", "nan"], ["--seed", "-1"]):
        code, _, err = run_cli(["verify", "--group", "su2", *flags], capsys)
        assert code == 2 and err.count("\n") == 1
    code, _, err = run_cli(["verify", "--config", str(tmp_path / "none")], capsys)
    assert code == 2
    cfg.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(["verify", "--config", str(cfg)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"tol": True}, {"tol": "1e-3"}, {"tol": float("inf")}, {"tol": float("nan")},
        {"oracle": "no"}, {"oracle": None}, {"grid": [14.7, 7, 28]},
        {"grid": [True, 7, 28]}, {"grid": ["6", "3", "12"]}, {"jmax": True},
        {"jsum": True}, {"seed": True}, {"seed": -1}, {"out": 987654},
    ],
    ids=json.dumps,
)
def test_config_file_values_are_type_checked(tmp_path, capsys, payload):
    # JSON true is an int to Python and "1e-3" is not a number: each value of
    # the wrong type is one error line, never a run, a traceback or an fd
    cfg = write_json(tmp_path / "cfg.json", payload)
    code, out, err = run_cli(["verify", "--group", "so2", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {next(iter(payload))} must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags",
    [["--jmax", "100000"], ["--jsum", "100000"], ["--jmax", "33"], ["--jsum", "33"]],
)
def test_labels_past_the_maximum_are_config_errors(flags):
    # resolved before any command runs, so nothing is allocated for them
    args = cli.build_parser().parse_args(["verify", *flags])
    with pytest.raises(ConfigError, match=r"0\.\.32"):
        cli.resolve_config(args)


def test_labels_at_the_maximum_are_accepted():
    top = states._MAX_TWO_J
    flags = ["--jmax", str(top), "--jsum", str(top)]
    args = cli.build_parser().parse_args(["verify", *flags])
    config = cli.resolve_config(args)
    assert (config.jmax_twice, config.jsum_twice) == (top, top)
    payload = {"group": "su2", "jmax_twice": top, "blocks": []}
    assert states.state_from_payload(payload).two_jmax == top
    with pytest.raises(SchemaError, match="jmax_twice"):
        states.state_from_payload({**payload, "jmax_twice": top + 1})


def test_huge_labels_exit_2_with_one_error_line(tmp_path, capsys):
    state = write_json(tmp_path / "s.json", uniform_state_payload())
    huge = write_json(
        tmp_path / "huge.json", {**uniform_state_payload(), "jmax_twice": 10**18}
    )
    for argv in (["overlap", "--jsum", "100000", state, state], ["wigner", huge]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "exc",
    [
        MemoryError(),
        # what numpy raises when an allocation fails
        np._core._exceptions._ArrayMemoryError((154904, 144), np.dtype(complex)),
    ],
    ids=["plain", "numpy"],
)
def test_memory_error_exits_2_with_one_error_line(capsys, monkeypatch, exc):
    def starved(config, rng):
        raise exc

    checks = list(cli._SU2_CHECKS)
    checks[1] = starved
    monkeypatch.setattr(cli, "_SU2_CHECKS", checks)
    code, out, err = run_cli(["verify", *SU2_FAST], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: MemoryError") and err.count("\n") == 1
    assert "Traceback" not in err


def test_wigner_memory_error_mid_export_leaves_no_file(tmp_path, capsys, monkeypatch):
    full_batch = wigner.wigner_full_batch
    calls = []

    def starving(rho, gs, two_j, kgrid):
        calls.append(two_j)
        if len(calls) > 1:
            raise MemoryError("Unable to allocate 31.0 GiB")
        return full_batch(rho, gs, two_j, kgrid)

    monkeypatch.setattr(wigner, "wigner_full_batch", starving)
    state = write_json(tmp_path / "uniform.json", uniform_state_payload())
    nodes = write_json(tmp_path / "g.json", {"euler": [[0.3, 0.7, 1.1]]})
    for fmt in ("json", "csv"):
        calls.clear()
        out_path = tmp_path / f"table.{fmt}"
        code, out, err = run_cli(
            ["wigner", "--jsum", "1", "--format", fmt, "--out", str(out_path),
             state, nodes],
            capsys,
        )
        assert code == 2 and out == ""
        assert calls == [0, 1]  # the first chunk was written before the failure
        assert err == "error: MemoryError: Unable to allocate 31.0 GiB\n"
        assert not out_path.exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# wigner tables


def test_wigner_so2_pure_mode_table(tmp_path, capsys):
    state = write_json(
        tmp_path / "m1.json",
        {
            "group": "so2",
            "m_min": -2,
            "re": [0.0, 0.0, 0.0, 1.0, 0.0],
            "im": [0.0, 0.0, 0.0, 0.0, 0.0],
        },
    )
    nodes = write_json(
        tmp_path / "nodes.json", {"theta": [0.0, 1.0], "m": [0, 1, 2]}
    )
    code, out, _ = run_cli(
        ["wigner", "--group", "so2", state, nodes], capsys
    )
    assert code == 0
    assert_dump_bytes(out)
    report = json.loads(out)
    assert report["metadata"]["columns"] == ["theta", "m", "re", "im"]
    for theta, m, re, im in report["rows"]:
        want = 1.0 / (2.0 * np.pi) if m == 1 else 0.0
        assert_allclose(re, want, atol=1e-14)
        assert im == 0.0
    assert len(report["rows"]) == 6


def test_wigner_cartesian_nodes(tmp_path, capsys):
    n, half_width = 128, 8.0
    q = -half_width + (2 * half_width / n) * np.arange(n)
    psi = np.pi**-0.25 * np.exp(-(q**2) / 2.0)
    state = write_json(
        tmp_path / "osc.json",
        {
            "group": "cartesian",
            "half_width": half_width,
            "periodic": False,
            "re": psi.tolist(),
            "im": [0.0] * n,
        },
    )
    nodes = write_json(tmp_path / "qp.json", {"q": [0.0], "p": [0.0, 0.5]})
    code, out, _ = run_cli(["wigner", "--group", "cartesian", state, nodes], capsys)
    assert code == 0
    assert_dump_bytes(out)
    report = json.loads(out)
    for q_val, p_val, re, im in report["rows"]:
        assert_allclose(re, np.exp(-(q_val**2) - p_val**2) / np.pi, atol=1e-8)


def test_wigner_cartesian_default_nodes_are_the_table(tmp_path, capsys):
    osc = baselines.oscillator_state(1, n=256)
    state = write_json(tmp_path / "osc.json", baselines.cartesian_to_payload(osc))
    code, out, _ = run_cli(["wigner", "--group", "cartesian", state], capsys)
    assert code == 0
    assert_dump_bytes(out)
    rows = json.loads(out)["rows"]
    qs, ps = osc.q.tolist(), baselines.cartesian_p_grid(osc).tolist()
    assert [row[:2] for row in rows] == [[q, p] for q in qs for p in ps]
    assert [row[2] for row in rows] == baselines.cartesian_wigner_table(osc).ravel().tolist()
    assert all(row[3] == 0.0 for row in rows)


@pytest.mark.parametrize("periodic", [False, True], ids=["padded", "periodic"])
def test_wigner_cartesian_right_edge_node_exits_2(tmp_path, capsys, periodic):
    # q = +L rounds to the excluded node n; a periodic state must not wrap it
    if periodic:
        osc = baselines.plane_wave_state(128, 8.0, 2.0)
    else:
        osc = baselines.oscillator_state(0, n=128)
    state = write_json(tmp_path / "osc.json", baselines.cartesian_to_payload(osc))
    nodes = write_json(tmp_path / "qp.json", {"q": [0.0, 8.0], "p": [0.0]})
    out_path = tmp_path / "table.json"
    code, out, err = run_cli(
        ["wigner", "--group", "cartesian", "--out", str(out_path), state, nodes],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == "error: OutOfDomain: q = 8.0 has no grid node\n"
    assert not out_path.exists()


def test_wigner_su2_uniform_state_frozen(tmp_path, capsys):
    state = write_json(tmp_path / "uniform.json", uniform_state_payload())
    nodes = write_json(tmp_path / "g.json", {"euler": [[0.3, 0.7, 1.1]]})
    code, out, _ = run_cli(["wigner", "--jsum", "0", state, nodes], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    # columns: alpha, beta, gamma, two_j, two_m, two_n, two_mp, two_np, re, im
    assert row[:4] == [0.3, 0.7, 1.1, 0]
    assert_allclose(row[8], 1.0, atol=1e-12)
    assert_allclose(row[9], 0.0, atol=1e-12)


def test_wigner_su2_zero_rows_for_zero_block(tmp_path, capsys):
    payload = {
        "group": "su2",
        "jmax_twice": 1,
        "blocks": [
            {"two_j": 1, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        ],
    }
    state = write_json(tmp_path / "zero.json", payload)
    nodes = write_json(tmp_path / "g.json", {"euler": [[0.0, 0.5, 0.0]]})
    code, out, _ = run_cli(["wigner", "--jsum", "2", state, nodes], capsys)
    assert code == 0
    report = json.loads(out)
    # row count: sum over two_j <= 2 of (two_j + 1)^4 block entries
    assert len(report["rows"]) == 1 + 16 + 81
    vals = np.array([row[8:] for row in report["rows"]])
    assert np.max(np.abs(vals)) < 1e-12


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_wigner_su2_zero_nodes_zero_rows(tmp_path, capsys, fmt):
    state = write_json(tmp_path / "uniform.json", uniform_state_payload())
    nodes = write_json(tmp_path / "g.json", {"euler": []})
    code, out, _ = run_cli(["wigner", "--format", fmt, state, nodes], capsys)
    assert code == 0
    if fmt == "json":
        assert_dump_bytes(out)
        assert json.loads(out)["rows"] == []
    else:
        assert _csv_rows(out) == []


def test_wigner_non_finite_values_exit_2_without_output(tmp_path, capsys, monkeypatch):
    # json.dump would write NaN and repr nan; the export must refuse both
    def nan_blocks(rho, gs, two_j, kgrid):
        return np.full((gs.shape[0],) + (two_j + 1,) * 4, np.nan, dtype=complex)

    monkeypatch.setattr(wigner, "wigner_full_batch", nan_blocks)
    state = write_json(tmp_path / "uniform.json", uniform_state_payload())
    nodes = write_json(tmp_path / "g.json", {"euler": [[0.3, 0.7, 1.1]]})
    for fmt in ("json", "csv"):
        out_path = tmp_path / f"table.{fmt}"
        code, out, err = run_cli(
            ["wigner", "--jsum", "1", "--format", fmt, "--out", str(out_path),
             state, nodes],
            capsys,
        )
        assert code == 2
        assert "non-finite" in err
        assert out == ""
        assert not out_path.exists()


def test_wigner_su2_export_calls_stay_within_chunk(tmp_path, capsys, monkeypatch):
    # memory is bounded by the chunk: no evaluation sees more than _CHUNK nodes
    seen = []
    full_batch = wigner.wigner_full_batch

    def recording(rho, gs, two_j, kgrid):
        seen.append((two_j, gs.shape[0]))
        return full_batch(rho, gs, two_j, kgrid)

    monkeypatch.setattr(wigner, "wigner_full_batch", recording)
    n_nodes = wigner._CHUNK + 7
    euler = np.random.default_rng(3).uniform(0.0, 3.0, (n_nodes, 3))
    state = write_json(tmp_path / "uniform.json", uniform_state_payload())
    nodes = write_json(tmp_path / "g.json", {"euler": euler.tolist()})
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        ["wigner", "--jsum", "1", "--format", "csv", "--out", str(out_path),
         state, nodes],
        capsys,
    )
    assert code == 0
    assert max(n for _, n in seen) <= wigner._CHUNK
    for two_j in (0, 1):
        assert sum(n for t, n in seen if t == two_j) == n_nodes
    rows = _csv_rows(out_path.read_text(encoding="utf-8"))
    assert len(rows) == n_nodes * (1 + 16)


def test_wigner_schema_errors_exit_2(tmp_path, capsys):
    state = write_json(tmp_path / "bad.json", {"group": "su2"})
    code, _, err = run_cli(["wigner", state], capsys)
    assert code == 2
    assert "jmax_twice" in err
    code, _, err = run_cli(["wigner", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    good = write_json(tmp_path / "uniform.json", uniform_state_payload())
    bad_nodes = write_json(tmp_path / "nodes.json", {"euler": [0.1, 0.2, 0.3]})
    code, _, err = run_cli(["wigner", good, bad_nodes], capsys)
    assert code == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(["wigner", str(binary)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "group,nodes_text",
    [
        ("su2", '{"euler": [[NaN, 0.2, 0.3]]}'),
        ("su2", '{"euler": [[0.1, Infinity, 0.3]]}'),
        ("so2", '{"theta": [0.0, NaN], "m": [0, 1]}'),
        ("cartesian", '{"q": [0.0], "p": [-Infinity, 0.5]}'),
    ],
    ids=["su2-nan", "su2-inf", "so2-nan", "cartesian-inf"],
)
def test_wigner_non_finite_nodes_exit_2(tmp_path, capsys, group, nodes_text):
    q = np.arange(-64, 64) / 8.0
    payloads = {
        "su2": uniform_state_payload(),
        "so2": {"group": "so2", "m_min": 0, "re": [1.0], "im": [0.0]},
        "cartesian": {
            "group": "cartesian",
            "half_width": 8.0,
            "periodic": False,
            "re": (np.pi**-0.25 * np.exp(-(q**2) / 2.0)).tolist(),
            "im": [0.0] * q.size,
        },
    }
    state = write_json(tmp_path / "state.json", payloads[group])
    nodes = tmp_path / "nodes.json"
    nodes.write_text(nodes_text, encoding="utf-8")
    code, out, err = run_cli(["wigner", "--group", group, state, str(nodes)], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_wigner_so2_nan_state_exit_2_before_output(tmp_path, capsys):
    # a NaN sample used to pass the norm check, so the export failed only
    # after the report head was written, blaming the table
    payload = {"group": "so2", "m_min": 0, "re": [float("nan")], "im": [0.0]}
    state = write_json(tmp_path / "so2.json", payload)
    code, out, err = run_cli(["wigner", "--group", "so2", state], capsys)
    assert code == 2
    assert out == ""
    assert "so2 field 're'" in err


def _csv_rows(out):
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("# ")]
    assert lines[0] == "alpha,beta,gamma,two_j,two_m,two_n,two_mp,two_np,re,im"
    return [
        [float(x) for x in ln.split(",")[:3]]
        + [int(x) for x in ln.split(",")[3:8]]
        + [float(x) for x in ln.split(",")[8:]]
        for ln in lines[1:]
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_wigner_su2_rows_match_full_batch(tmp_path, capsys, fmt):
    rho = states.random_state(np.random.default_rng(31), 2)
    state = tmp_path / "state.json"
    states.save_state(rho, state)
    euler = [[0.3, 0.7, 1.1], [2.0, 2.5, 4.0]]
    nodes = write_json(tmp_path / "g.json", {"euler": euler})
    code, out, _ = run_cli(
        ["wigner", "--jsum", "2", "--format", fmt, str(state), nodes], capsys
    )
    assert code == 0
    if fmt == "json":
        assert_dump_bytes(out)
    rows = json.loads(out)["rows"] if fmt == "json" else _csv_rows(out)
    assert len(rows) == 2 * (1 + 16 + 81)
    gs = su2.from_euler(*np.array(euler).T)
    kgrid = grids.hemisphere_grid_for(2 + 2)
    blocks = [wigner.wigner_full_batch(rho, gs, t, kgrid) for t in range(3)]
    seen = set()
    for alpha, beta, gamma, two_j, two_m, two_n, two_mp, two_np, re, im in rows:
        node = euler.index([alpha, beta, gamma])
        idx = tuple((two_j - t) // 2 for t in (two_m, two_n, two_mp, two_np))
        assert abs(complex(re, im) - blocks[two_j][(node,) + idx]) <= 1e-12
        seen.add((node, two_j) + idx)
    assert len(seen) == len(rows)


# ---------------------------------------------------------------------------
# overlap


def test_overlap_identical_uniform_states(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", uniform_state_payload())
    b = write_json(tmp_path / "b.json", uniform_state_payload())
    code, out, _ = run_cli(
        ["overlap", "--grid", "8x4x16", "--jsum", "4", a, b], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert_allclose(report["coefficient_trace"], 1.0, atol=1e-13)
    assert_allclose(report["wigner_sum"], 1.0, atol=1e-12)
    assert report["gap"] < 1e-12
    assert_allclose(report["increments"][0], 1.0, atol=1e-12)
    assert np.max(np.abs(report["increments"][1:])) < 1e-12
    assert report["passed"] is True


def test_overlap_orthogonal_states(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", basis_state_payload(1, 1, 1))
    b = write_json(tmp_path / "b.json", basis_state_payload(1, 1, -1))
    code, out, _ = run_cli(
        [
            "overlap",
            "--grid",
            "8x4x16",
            "--jsum",
            "8",
            "--tol",
            "5e-3",
            a,
            b,
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert_allclose(report["coefficient_trace"], 0.0, atol=1e-13)
    assert report["gap"] < 5e-3
    assert len(report["partial_sums"]) == 9


def test_overlap_fails_beyond_tolerance(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", basis_state_payload(1, 1, 1))
    b = write_json(tmp_path / "b.json", basis_state_payload(1, 1, 1))
    code, out, _ = run_cli(
        ["overlap", "--grid", "8x4x16", "--jsum", "2", "--tol", "1e-12", a, b],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["gap"] > 1e-12


def test_overlap_requires_su2(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", uniform_state_payload())
    code, _, err = run_cli(["overlap", "--group", "so2", a, a], capsys)
    assert code == 2
    assert "su2" in err


def test_overlap_csv_format(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", uniform_state_payload())
    code, out, _ = run_cli(
        ["overlap", "--grid", "8x4x16", "--jsum", "2", "--format", "csv", a, a],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = next(ln for ln in lines if not ln.startswith("# "))
    assert header == "two_jsum,partial_sum,increment"
    assert lines[-1].startswith("# coefficient_trace=")
    rows = lines[lines.index(header) + 1 : -1]
    _, out_json, _ = run_cli(
        ["overlap", "--grid", "8x4x16", "--jsum", "2", "--format", "json", a, a],
        capsys,
    )
    report = json.loads(out_json)
    assert rows == [
        f"{t},{p!r},{i!r}"
        for t, (p, i) in enumerate(zip(report["partial_sums"], report["increments"]))
    ]
