import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumplab import ConfigError, Domain, JumplabError, preset
from jumplab import theory
from jumplab.cli import main
from jumplab.config import build_problem, parse_domain, parse_field
from jumplab.experiments import theory_quadratures

ASYM_CONFIG = {
    "name": "asym-from-config",
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
    "coefficients": {
        "k": 0,
        "diffusion": 1.0,
        "intensity": {"poly": {"0": 1.0, "1": 2.0, "2": 1.0}},
        "redistribution": {"poly": {"0": 1.0, "1": -4.0, "2": 6.0}},
        "boundary_data": {"poly": {"1": 1.0}},
    },
    "x0": [0.5],
}


def test_parse_domain_kinds():
    assert parse_domain({"kind": "interval", "a": 0, "b": 2}) == Domain.interval(0, 2)
    assert parse_domain({"kind": "rectangle", "x0": 0, "y0": 0, "x1": 1, "y1": 2}) \
        == Domain.rectangle(0, 0, 1, 2)
    assert parse_domain({"kind": "disk", "center": [1, 1], "radius": 0.5}) \
        == Domain.disk(1, 1, 0.5)
    assert parse_domain({"kind": "annulus", "r_inner": 0.5, "r_outer": 1.0}) \
        == Domain.annulus(0, 0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        parse_domain({"kind": "triangle"})
    with pytest.raises(ConfigError):
        parse_domain({"kind": "interval", "a": 1.0, "b": 0.0})


def test_field_grammar():
    dom = Domain.interval(0, 1)
    f = parse_field({"poly": {"1": 6.0, "2": -6.0}}, 1, dom)
    assert f(np.array([[0.5]]))[0] == pytest.approx(1.5)
    g = parse_field({"trig": {"fn": "sin", "freq": [math.pi], "amp": 2.0}}, 1, dom)
    assert g(np.array([[0.5]]))[0] == pytest.approx(2.0)
    h = parse_field({"dist_power": {"m": 2, "factor": 3.0}}, 1, dom)
    assert h(np.array([[0.25]]))[0] == pytest.approx(3 * 0.0625)
    s = parse_field({"sum": [1.0, {"scale": {"by": 2.0, "field": {"poly": {"1": 1.0}}}}]}, 1, dom)
    assert s(np.array([[0.25]]))[0] == pytest.approx(1.5)
    assert parse_field(2.5, 1, dom)(np.array([[0.1]]))[0] == 2.5
    with pytest.raises(ConfigError):
        parse_field({"poly": {"1,2": 1.0}}, 1, dom)  # wrong arity
    with pytest.raises(ConfigError):
        parse_field({"mystery": 1}, 1, dom)


@pytest.mark.parametrize("node", [
    {"trig": {}}, {"dist_power": {}}, {"scale": {"by": 2}}, {"poly": [1, 2]}, {"sum": 3},
    {"poly": {"1": "x"}}, {"const": "a"}, {"trig": {"freq": [1, 2]}}, {"sum": []},
    {"dist_power": {"m": float("inf")}}, True, {"dist_power": {"m": -1}},
    {"dist_power": {"m": 1.5}},
])
def test_field_grammar_errors_are_config_errors(node):
    with pytest.raises(ConfigError):
        parse_field(node, 1, Domain.interval(0, 1))


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
FIELD_KEYS = ("fn", "freq", "phase", "amp", "m", "factor", "by", "field", "0", "1", "0,1", "x")
FIELD_SPECS = st.recursive(
    st.one_of(JSON_LEAVES, st.dictionaries(st.sampled_from(
        ("const", "poly", "trig", "dist_power", "sum", "scale")), JSON_VALUES, max_size=2)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(FIELD_KEYS), inner, max_size=3),
        st.dictionaries(st.sampled_from(("const", "poly", "trig", "dist_power", "sum",
                                         "scale")), inner, min_size=1, max_size=1)),
    max_leaves=10)
DOMAINS = st.one_of(
    st.just({"kind": "interval", "a": 0.0, "b": 1.0}),
    st.just({"kind": "disk", "radius": 1.0}),
    st.dictionaries(st.sampled_from(("kind", "a", "b", "radius", "center", "r_inner")),
                    st.one_of(st.sampled_from(("interval", "disk", "annulus")), JSON_VALUES),
                    max_size=4),
    JSON_VALUES)
COEFFICIENTS = st.one_of(
    st.dictionaries(st.sampled_from(("k", "diffusion", "drift", "intensity", "redistribution",
                                     "boundary_data", "allow_vanishing_intensity")),
                    st.one_of(FIELD_SPECS, st.lists(FIELD_SPECS, max_size=2)), max_size=7),
    JSON_VALUES)
DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"domain": DOMAINS, "coefficients": COEFFICIENTS},
                          optional={"k": JSON_VALUES, "x0": JSON_VALUES, "name": JSON_VALUES}),
    JSON_VALUES)


@settings(max_examples=300, deadline=None)
@given(node=FIELD_SPECS, dim=st.sampled_from((1, 2)))
def test_parse_field_raises_only_package_errors(node, dim):
    domain = Domain.interval(0, 1) if dim == 1 else Domain.disk(0, 0, 1)
    try:
        parse_field(node, dim, domain)
    except JumplabError:
        pass


@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
def test_build_problem_raises_only_package_errors(doc):
    try:
        build_problem(doc)
    except JumplabError:
        pass


def test_build_problem_matches_preset_theory():
    spec = build_problem(ASYM_CONFIG)
    spec.validate()
    quad, iquad = theory_quadratures(spec.domain)
    phi0 = theory.limit_exit_functional(spec.coeffs, quad)
    assert phi0 == pytest.approx(0.6, abs=1e-12)
    ref = preset("interval-k0-asym")
    ref_phi0 = theory.limit_exit_functional(ref.coeffs, quad)
    assert phi0 == pytest.approx(ref_phi0, abs=1e-14)


def test_build_problem_requires_sections():
    with pytest.raises(ConfigError):
        build_problem({"domain": {"kind": "interval", "a": 0, "b": 1}})
    with pytest.raises(ConfigError):
        build_problem({"domain": {"kind": "interval", "a": 0, "b": 1},
                       "coefficients": {"intensity": 1.0, "redistribution": 1.0}})


@pytest.mark.parametrize("k", [1.5, "2", True, math.nan])
def test_vanishing_order_must_be_integer_valued(k):
    doc = {"domain": {"kind": "interval", "a": 0, "b": 1},
           "coefficients": {"k": k, "intensity": 1.0, "redistribution": 1.0}}
    with pytest.raises(ConfigError, match="vanishing order"):
        build_problem(doc)
    # an integer-valued float is the integer
    doc["coefficients"]["k"] = 2.0
    assert build_problem(doc).coeffs.vanishing_order == 2


def _write_config(tmp_path):
    p = tmp_path / "prob.json"
    p.write_text(json.dumps(ASYM_CONFIG))
    return str(p)


def test_cli_theory(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["theory", "--preset", "interval-k1-beta22", "--out", str(out),
               "--format", "csv"])
    assert rc == 0
    payload = json.loads((out / "theory.json").read_text())
    assert payload["k"] == 1
    assert payload["phi0"] == pytest.approx(0.5, abs=1e-12)
    assert payload["C_eig"] == pytest.approx(6.0, rel=1e-8)
    assert (out / "theory_density.csv").exists()


def test_cli_theory_from_config(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "o2"
    rc = main(["theory", "--config", cfg, "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "theory.json").read_text())
    assert payload["phi0"] == pytest.approx(0.6, abs=1e-12)


def test_cli_solve_and_eigen(tmp_path):
    out = tmp_path / "s"
    rc = main(["solve", "--preset", "interval-k0-uniform", "--delta", "1e-3",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "solve.json").read_text())
    assert payload["value_at_x0"] == pytest.approx(0.5, abs=1e-9)
    assert (out / "phi_grid.csv").exists()
    rc = main(["eigen", "--preset", "interval-k0-uniform", "--delta", "1e-3",
               "--out", str(out)])
    assert rc == 0
    eig = json.loads((out / "eigen.json").read_text())
    assert eig["lambda0"] == pytest.approx(0.04580, rel=1e-3)
    assert eig["residual"] <= 1e-10


def test_cli_solve_u_quantity(tmp_path):
    out = tmp_path / "u"
    rc = main(["solve", "--preset", "interval-k0-uniform", "--delta", "1e-2",
               "--quantity", "u", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "solve.json").read_text())
    r = math.sqrt(2 / 1e-2)
    assert payload["value_at_x0"] == pytest.approx(1 / math.cosh(r / 2), rel=1e-3)


def test_cli_mc_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    args = ["mc", "--preset", "interval-k0-uniform", "--delta", "0.2",
            "--paths", "400", "--dt", "1e-3", "--horizon", "200", "--seed", "5"]
    assert main(args + ["--out", str(out1), "--save-paths"]) == 0
    assert main(args + ["--out", str(out2), "--save-paths", "--workers", "2"]) == 0
    assert (out1 / "mc.json").read_bytes() == (out2 / "mc.json").read_bytes()
    assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()


def test_cli_sweep_decay(tmp_path):
    out = tmp_path / "d"
    rc = main(["sweep", "--preset", "interval-k0-uniform", "--experiment", "decay",
               "--delta", "1e-2,1e-3", "--out", str(out)])
    assert rc == 0
    rows = (out / "interior-decay.csv").read_text().strip().splitlines()
    assert rows[0] == "delta,method,quantity,value,stderr"
    assert len(rows) == 3
    summary = json.loads((out / "interior-decay.json").read_text())
    assert summary["pass"] is True


def test_cli_sweep_eigenvalue_even_k(tmp_path):
    # even k takes the sqrt(2) divisor of the prefactor; every check's pass
    # flag must still be a JSON-writable bool
    out = tmp_path / "e"
    rc = main(["sweep", "--preset", "interval-k0-uniform", "--experiment", "eigenvalue",
               "--delta", f"1e-3,{10**-3.5!r},1e-4", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "eigenvalue-scaling.json").read_text())
    assert summary["pass"] is True
    checks = {c["name"]: c for c in summary["checks"]}
    lim = checks["exponent_limit_contains_theory"]
    assert lim["passed"] is True
    assert lim["target"] == 0.5
    assert lim["value"] == summary["fit"]["exponent_limit"]
    assert lim["tol"] == summary["fit"]["exponent_limit_band"]
    assert len((out / "eigenvalue-scaling.csv").read_text().strip().splitlines()) == 4


def test_cli_validate_pass_and_fail(tmp_path):
    assert main(["validate", "--preset", "interval-k2-quartic"]) == 0
    bad = dict(ASYM_CONFIG)
    bad["coefficients"] = dict(ASYM_CONFIG["coefficients"],
                               redistribution={"poly": {"1": 6.0, "2": -6.0}})
    # beta22 density declared k=0: the vanishing-order gate must fail
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "--config", str(p)]) == 1


def test_cli_probe_smoke(tmp_path):
    out = tmp_path / "p"
    rc = main(["probe", "--m", "1", "--delta", "1e-2,3.162e-3,1e-3",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "probe.json").read_text())
    assert "alpha" in payload["1"]
    assert (out / "probe_m1.csv").exists()


def test_cli_requires_problem():
    assert main(["theory"]) == 2


PRESET = ["--preset", "interval-k0-uniform"]


@pytest.mark.parametrize("argv", [
    ["probe", "--workers", "4"],
    ["eigen", *PRESET, "--delta", "1e-3", "--workers", "2"],
    ["sweep", *PRESET, "--seed", "3"],
    ["theory", *PRESET, "--grid-n", "11"],
    ["theory", *PRESET, "--grid-angular", "16"],
    ["solve", *PRESET, "--delta", "1e-2", "--format", "csv"],
    ["mc", *PRESET, "--delta", "0.2", "--paths", "20", "--format", "csv"],
    ["mc", *PRESET, "--delta", "0.2", "--paths", "20", "--grid-n", "11"],
    ["sweep", *PRESET, "--experiment", "decay", "--grid-n", "3"],
    ["sweep", *PRESET, "--experiment", "decay", "--format", "csv"],
    ["probe", *PRESET, "--m", "1", "--delta", "1e-2,1e-3"],
    ["probe", "--config", "c.json"],
    ["probe", "--m", "1", "--delta", "1e-2,1e-3", "--grid-n", "11"],
    ["validate", *PRESET, "--out", "o"],
    ["validate", *PRESET, "--format", "csv"],
    ["validate", *PRESET, "--grid-angular", "16"],
])
def test_cli_rejects_flags_the_command_does_not_read(argv):
    # each command registers only the flags it reads; any other is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--preset", "interval-k0-uniform", "--delta", "1e-3", "--grid-n", "2"],
    ["solve", "--preset", "disk-k0-radial", "--delta", "1e-3", "--grid-angular", "4"],
    ["solve", "--preset", "disk-k0-radial", "--delta", "1e-3", "--grid-angular", "0"],
])
def test_cli_too_few_grid_nodes_is_an_error_line(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["solve", "--preset", "square-k0-uniform", "--delta", "1e-2", "--grid-n", "0"],
    ["eigen", "--preset", "interval-k0-uniform", "--delta", "1e-2", "--grid-n", "-4"],
    ["mc", "--preset", "interval-k0-uniform", "--delta", "0.2", "--paths", "20", "--workers", "0"],
    ["mc", "--preset", "interval-k0-uniform", "--delta", "0.2", "--paths", "20",
     "--workers", "-5"],
    ["sweep", "--preset", "interval-k0-uniform", "--experiment", "exit-law", "--workers", "0"],
], ids=["grid-n-0", "grid-n-negative", "workers-0", "workers-negative", "sweep-workers-0"])
def test_cli_count_flags_below_their_least_value_are_error_lines(argv, tmp_path, capsys):
    # --grid-n 0 fell back to the suggested grid, and --workers 0 ran serially
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    flag = "--grid-n must be at least 3" if "--grid-n" in argv else "--workers must be at least 1"
    assert err.startswith(f"error: {flag}, got ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_cli_grid_too_large_for_memory_is_an_error_line(tmp_path, capsys):
    # the square at 400,001 nodes per axis would ask for 2.3 TiB of grid coordinates
    argv = ["eigen", "--preset", "square-k0-uniform", "--delta", "1e-9", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


EIGEN = ["eigen", "--preset", "interval-k0-uniform"]


@pytest.mark.parametrize("argv, sections", [
    (EIGEN + ["--delta", "abc"], None),
    (EIGEN + ["--delta", ","], None),
    (EIGEN + ["--delta", "0"], None),
    (EIGEN + ["--delta=-1e-3"], None),
    (EIGEN + ["--delta=nan"], None),
    (["probe", "--m", "a"], None),
    (["sweep", "--preset", "interval-k0-uniform", "--experiment", "eigenvalue",
      "--delta", "1e-3,1e-3,1e-4"], None),
    (["sweep", "--preset", "interval-k0-uniform", "--experiment", "decay",
      "--delta", "1e-3"], None),
    (["mc", "--delta", "0.2"], {"mc": {"dt": "x"}}),
    (["mc", "--delta", "0.2"], {"mc": {"chunk_size": "big"}}),
    (["mc", "--delta", "0.2"], {"mc": [1]}),
    (["sweep"], {"experiment": {"kind": "decay", "deltas": ["a"]}}),
    (["sweep"], {"experiment": {"kind": "decay", "deltas": 0.1}}),
    (["theory"], {"k": -1}),
    (["theory"], {"k": 1.5}),
], ids=["delta-text", "delta-empty", "delta-zero", "delta-negative", "delta-nan", "m-text",
        "delta-repeated", "decay-one-delta", "mc-dt-text", "mc-chunk-size-text",
        "mc-not-object", "deltas-text", "deltas-scalar", "k-negative", "k-fraction"])
def test_cli_bad_numbers_are_error_lines(argv, sections, tmp_path, capsys):
    if sections is not None:
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(ASYM_CONFIG | sections))
        argv = argv + ["--config", str(p)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_coarse_grid_error_names_cli_remedies(tmp_path, capsys):
    argv = ["solve", "--preset", "interval-k0-uniform", "--delta", "1e-3", "--grid-n", "21"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "allow_coarse" not in err and "--grid-n" in err


SQUARE_CONFIG = {
    "domain": {"kind": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0},
    "coefficients": {"k": 0, "intensity": 1.0, "redistribution": 1.0},
}


def _square_with_diffusion(diffusion):
    return SQUARE_CONFIG | {"coefficients": SQUARE_CONFIG["coefficients"]
                            | {"diffusion": diffusion}}


def test_cli_asymmetric_diffusion_is_an_error_line(tmp_path, capsys):
    p = tmp_path / "asym.json"
    p.write_text(json.dumps(_square_with_diffusion([[1.0, 0.3], [0.9, 1.0]])))
    assert main(["validate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    # a symmetric matrix (equal, separately parsed entries) keeps both off-diagonals
    spec = build_problem(_square_with_diffusion([[1.0, 0.3], [0.3, 1.0]]))
    assert np.array_equal(spec.coeffs.diffusion(np.array([0.5, 0.5])), [[1.0, 0.3], [0.3, 1.0]])
    spec.validate()


@pytest.mark.parametrize("flags", [["--dt", "inf"], ["--bins", "0"], ["--bins", "-3"]],
                         ids=["dt-inf", "bins-0", "bins-minus-3"])
def test_cli_mc_bad_step_or_bins_is_an_error_line(flags, tmp_path, capsys):
    argv = ["mc", "--preset", "interval-k0-uniform", "--delta", "0.2", "--paths", "20",
            "--out", str(tmp_path / "o")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags, section", [
    (["--seed", "-1"], {}),
    ([], {"mc": {"chunk_size": 0}}),
    ([], {"mc": {"paths": 0}}),
], ids=["seed-negative", "chunk-size-zero", "paths-zero"])
def test_cli_mc_bad_count_or_seed_is_an_error_line(flags, section, tmp_path, capsys):
    # a negative seed reached numpy's SeedSequence and ended in a traceback
    p = tmp_path / "counts.json"
    p.write_text(json.dumps(ASYM_CONFIG | section))
    argv = ["mc", "--delta", "0.2", "--config", str(p), "--out", str(tmp_path / "o")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("x0", [[1.5], [[0.5, 0.5]]], ids=["outside", "two-coordinates"])
@pytest.mark.parametrize("argv", [
    ["mc", "--delta", "0.2", "--paths", "20"],
    ["solve", "--delta", "1e-2"],
], ids=["mc", "solve"])
def test_cli_start_outside_the_domain_is_an_error_line(argv, x0, tmp_path, capsys):
    # x0 = 1.5 on the unit interval: mc read mean f = 1 from paths that exit at
    # once, and solve extrapolated phi past the grid to 2.55 > max f
    p = tmp_path / "outside.json"
    p.write_text(json.dumps(ASYM_CONFIG | {"x0": x0}))
    assert main(argv + ["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x0" in err and len(err.strip().splitlines()) == 1


def test_cli_sweep_flux_on_a_ring(tmp_path):
    out = tmp_path / "f"
    rc = main(["sweep", "--preset", "annulus-flux", "--experiment", "flux",
               "--delta", "3e-3,1e-3", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "boundary-flux.json").read_text())
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["flux_uniformity"]["passed"] is True
    assert len((out / "boundary-flux.csv").read_text().strip().splitlines()) == 3


def test_cli_csv_cells_are_plain_floats(tmp_path):
    # every cell but the method and quantity names parses as a float (no numpy reprs)
    out = tmp_path / "o"
    assert main(["solve", *PRESET, "--delta", "1e-2", "--grid-n", "21", "--out", str(out)]) == 0
    assert main(["eigen", *PRESET, "--delta", "1e-2", "--format", "csv",
                 "--out", str(out)]) == 0
    assert main(["sweep", *PRESET, "--experiment", "flux", "--out", str(out)]) == 0
    for name in ("phi_grid.csv", "eigenfunction.csv", "boundary-flux.csv"):
        header, *lines = (out / name).read_text().strip().splitlines()
        columns = header.split(",")
        assert lines
        for line in lines:
            cells = line.split(",")
            assert len(cells) == len(columns)
            for column, cell in zip(columns, cells):
                if column not in ("method", "quantity"):
                    float(cell)


FULL_CONFIG = {
    "name": "beta22-from-config",
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
    "k": 1,
    "coefficients": {
        "diffusion": 1.0,
        "intensity": 1.0,
        "redistribution": {"poly": {"1": 6.0, "2": -6.0}},
    },
    "experiment": {"kind": "decay", "deltas": [1e-2, 1e-3]},
    "mc": {"dt": 1e-3, "paths": 300, "exit_mode": "bridge-1d", "horizon": 300.0},
    "x0": [0.5],
}


def test_cli_full_config_sections(tmp_path):
    p = tmp_path / "full.json"
    p.write_text(json.dumps(FULL_CONFIG))
    out = tmp_path / "o"
    # top-level k reaches the coefficients
    assert main(["validate", "--config", str(p)]) == 0
    # sweep picks experiment.kind and experiment.deltas from the config
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "interior-decay.csv").exists()
    # mc section supplies dt / paths / exit mode
    assert main(["mc", "--config", str(p), "--delta", "0.2", "--out", str(out)]) == 0
    payload = json.loads((out / "mc.json").read_text())
    assert payload["n_paths"] == 300
    assert payload["dt"] == 1e-3
    assert payload["exit_mode"] == "bridge-1d"
