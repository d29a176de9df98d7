"""Command-line surface: subcommands, exit codes, artifact determinism."""

import hashlib
import json
import math
import warnings

import pytest

from boxflow.catalog import builtin_catalog, dump_catalog
from boxflow.cli import main


def run(args):
    return main(args)


def test_usage_error_empty(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_unknown_map_is_catalog_error(tmp_path):
    assert run(["flow", "--map", "nope", "--out", str(tmp_path)]) == 3


def test_flow_subcommand_outputs(tmp_path, capsys):
    code = run(["flow", "--map", "heis52", "--lambda", "5/2",
                "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "q = 3/2" in out
    assert "d = 2" in out
    assert "flow(s) = [[1, 5/2 * a1 * s], [0, 1]]" in out
    data = json.loads((tmp_path / "flow.json").read_text())
    assert data["q"] == "3/2"
    assert data["group_law_passed"] is True
    config = json.loads((tmp_path / "flow_config.json").read_text())
    assert "config_hash" in config


def test_flow_normalizes_on_the_map_exponents(tmp_path, capsys):
    # lambda = 1 on x^2: c = 3/2 would make every t-exponent an integer
    code = run(["flow", "--map", "u_squared", "--lambda", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "normalization c = 5/4; scaled lambda = 5/4" in out and "q = 3/2" in out


def test_flow_twodim_subcommand(tmp_path, capsys):
    code = run(["flow", "--map", "poly23", "--twodim", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "q = 1" in out and "p = 3" in out and "b = 4" in out


def test_flow_twodim_on_a_one_variable_map_makes_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["flow", "--map", "heis52", "--twodim", "--out", str(out)]) == 2
    assert "map heis52 is not two-variable" in capsys.readouterr().err
    assert not out.exists()


def test_flow_default_lambda_from_catalog(tmp_path, capsys):
    code = run(["flow", "--map", "u_horo", "--out", str(tmp_path)])
    assert code == 0
    assert "q = 1/2" in capsys.readouterr().out


def test_good_subcommand(tmp_path, capsys):
    code = run([
        "good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.01,0.04",
        "--alpha", "1/2", "--grid", "200", "--out", str(tmp_path),
    ])
    assert code == 0
    table = (tmp_path / "good.csv").read_text().strip().split("\n")
    assert table[0] == "delta,lhs,rhs,holds"
    assert len(table) == 3
    assert table[1].endswith("True")


def test_good_failure_exit_code(tmp_path):
    # x^2 is not in the alpha = 1 class
    code = run([
        "good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.01",
        "--alpha", "1", "--grid", "200", "--out", str(tmp_path),
    ])
    assert code == 1


def test_cover_subcommand(tmp_path, capsys):
    code = run(["cover", "--random", "30,2", "--seed", "4",
                "--out", str(tmp_path)])
    assert code == 0
    assert "coverage: total" in capsys.readouterr().out
    assert (tmp_path / "cover.csv").exists()


@pytest.mark.parametrize("text", ["", "0.5,nan,0.2\n1.0,1.0,0.3\n", "0.5,0.5,inf\n"])
def test_cover_rejects_empty_and_non_finite_points(tmp_path, capsys, text):
    points = tmp_path / "points.csv"
    points.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the one-line message, no numpy warning
        code = run(["cover", "--points", str(points), "--out", str(tmp_path)])
    assert code == 1
    assert "invariant failure" in capsys.readouterr().err
    assert not (tmp_path / "cover.csv").exists()


@pytest.mark.parametrize("text,message", [
    (None, "No such file"),
    ("0.5,0.5,0.2\n1.0,abc,0.3\n", "could not convert"),
])
def test_cover_points_file_errors_are_usage_errors(tmp_path, capsys, text, message):
    points = tmp_path / "points.csv"
    if text is not None:
        points.write_text(text)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["cover", "--points", str(points), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    last = err.strip().splitlines()[-1]  # the one-line message after the usage
    assert "error: argument --points: cannot read" in last and message in last
    assert "Traceback" not in err
    assert not out.exists()


# The cases of the tables below carry fixed ids (the positional ids they
# were first collected under), so a new case renames no other test.
@pytest.mark.parametrize("args", [
    pytest.param(["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.1", "--alpha", "1/2",
                  "--grid", "50", "--mc-samples", "-5"],
                 id="args0"),
    pytest.param(["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.1", "--alpha", "1/2",
                  "--grid", "50", "--mc-samples", "0"],
                 id="args1"),
    pytest.param(["flow", "--map", "heis52", "--trials", "-1"], id="args2"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "5", "--grid", "0"], id="args3"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "5", "--grid", "4"], id="args4"),
])
def test_invalid_counts_are_domain_errors(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 1
    assert "invariant failure" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.txt"))


@pytest.mark.parametrize("args,message", [
    pytest.param(["equi", "--map", "ul_product", "--T", "10", "--lambda", "1"],
                 "1-dimensional box for 2 map variables",
                 id="args0-1-dimensional box for 2 map variables"),
    pytest.param(["equi", "--map", "ul_product", "--T", "10", "--obs", "siegel:indicator:nan"],
                 "radius must be positive and finite",
                 id="args1-radius must be positive and finite"),
    pytest.param(["equi", "--map", "ul_product", "--T", "10", "--obs", "siegel:indicator:inf"],
                 "radius must be positive and finite",
                 id="args2-radius must be positive and finite"),
    pytest.param(["equi", "--map", "ul_product", "--T", "10,inf", "--grid", "16"],
                 "box parameter must be positive and finite",
                 id="args3-box parameter must be positive and finite"),
    pytest.param(["equi", "--map", "ul_product", "--T", "1e200", "--lambda", "2,1",
                  "--grid", "16"],
                 "overflows",
                 id="args4-overflows"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "5,inf", "--grid", "16"],
                 "T2 values must be positive and finite",
                 id="args5-T2 values must be positive and finite"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "nan", "--grid", "16"],
                 "T2 values must be positive and finite",
                 id="args6-T2 values must be positive and finite"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "1e100", "--grid", "16"],
                 "overflows",
                 id="args7-overflows"),
    pytest.param(["good", "--poly", "x^2", "--box", "0,inf", "--deltas", "0.1", "--alpha", "1/2"],
                 "box corners must be finite",
                 id="args8-box corners must be finite"),
    pytest.param(["equi", "--map", "u_horo", "--T", "10", "--grid", "8", "--eps0=-1,nan,inf"],
                 "eps0 values must be positive and finite",
                 id="args9-eps0 values must be positive and finite"),
    pytest.param(["equi", "--map", "u_horo", "--T", "10", "--grid", "8", "--eps0=0.1,nan"],
                 "eps0 values must be positive and finite",
                 id="args10-eps0 values must be positive and finite"),
    pytest.param(["equi", "--map", "u_horo", "--T", "10", "--grid", "8", "--eps0=inf"],
                 "eps0 values must be positive and finite",
                 id="args11-eps0 values must be positive and finite"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "5", "--grid", "8", "--eps0=0"],
                 "eps0 values must be positive and finite",
                 id="args12-eps0 values must be positive and finite"),
    pytest.param(["good", "--poly", "x", "--box", "0,1", "--deltas", "0.1", "--alpha", "-1"],
                 "alpha must be positive",
                 id="args13-alpha must be positive"),
    pytest.param(["good", "--poly", "x", "--box", "0,1", "--deltas", "0.1", "--alpha", "0"],
                 "alpha must be positive",
                 id="args14-alpha must be positive"),
    pytest.param(["cover", "--random", "5,2", "--bound", "0"],
                 "multiplicity bound must be at least 1",
                 id="args15-multiplicity bound must be at least 1"),
    pytest.param(["cover", "--random", "5,2", "--bound", "-3"],
                 "multiplicity bound must be at least 1",
                 id="args16-multiplicity bound must be at least 1"),
    # boxes that do not expand
    pytest.param(["equi", "--map", "ul_product", "--T", "10,100", "--grid", "8",
                  "--lambda=-1,1/2"],
                 "box exponents must be positive",
                 id="args17-box exponents must be positive"),
    pytest.param(["equi", "--map", "ul_product", "--T", "10,100", "--grid", "8", "--lambda=1,0"],
                 "box exponents must be positive",
                 id="args18-box exponents must be positive"),
    # deltas and constants that are not finite
    pytest.param(["good", "--poly", "x^2", "--box", "0,1", "--deltas", "nan", "--alpha", "1/2"],
                 "delta must be positive and finite",
                 id="args19-delta must be positive and finite"),
    pytest.param(["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.01,inf",
                  "--alpha", "1/2"],
                 "delta must be positive and finite",
                 id="args20-delta must be positive and finite"),
    pytest.param(["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.1", "--alpha", "1/2",
                  "--C", "nan"],
                 "C must be at least 1 and finite",
                 id="args21-C must be at least 1 and finite"),
    pytest.param(["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.1", "--alpha", "1/2",
                  "--C", "inf"],
                 "C must be at least 1 and finite",
                 id="args22-C must be at least 1 and finite"),
])
def test_bad_boxes_and_radii_are_domain_errors(tmp_path, capsys, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow on the way
        assert run(args + ["--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


GOOD = ["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.1", "--alpha", "1/2"]
EQUI = ["equi", "--map", "ul_product", "--T", "10"]


@pytest.mark.parametrize("args", [
    pytest.param(["equi", "--map", "ul_product", "--T", "abc"], id="args0"),
    pytest.param(EQUI + ["--eps0", "x"], id="args1"),
    pytest.param(EQUI + ["--obs", "siegel:indicator:abc"], id="args2"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "5", "--b", "x"], id="args3"),
    pytest.param(EQUI + ["--lambda", "x,1"], id="args4"),
    pytest.param(EQUI + ["--lambda", "1/0"], id="args5"),
    pytest.param(EQUI + ["--J", "0,1;0"], id="args6"),
    pytest.param(["flow", "--map", "heis52", "--lambda", "1/0"], id="args7"),
    pytest.param(GOOD[:4] + ["0"] + GOOD[5:], id="args8"),
    pytest.param(GOOD[:6] + ["x"] + GOOD[7:], id="args9"),
    pytest.param(GOOD[:8] + ["x"], id="args10"),
    pytest.param(GOOD[:8] + ["1/0"], id="args11"),
    pytest.param(["cover", "--random", "abc"], id="args12"),
    pytest.param(["cover", "--random", "5"], id="args13"),
    pytest.param(["cover", "--random=-3,2"], id="args14"),
    pytest.param(["cover", "--random", "0,2"], id="args15"),
    pytest.param(["cover", "--random", "5,0"], id="args16"),
])
def test_malformed_numbers_are_usage_errors(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_equi_needs_T(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["equi", "--map", "u_horo", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["--t2", "5", "--T", "10,20"],
    ["--T", "10", "--b", "2"],
    ["--t2", "5", "--lambda", "1,1/2"],
    ["--t2", "5", "--J", "0,1;0,1"],
], ids=["T-with-t2", "b-with-T", "lambda-with-t2", "J-with-t2"])
def test_equi_rejects_options_its_mode_ignores(tmp_path, capsys, args):
    out = tmp_path / "out"
    try:
        code = run(["equi", "--map", "poly23_lower", "--grid", "16",
                    "--out", str(out)] + args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "not allowed with argument --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_equi_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        run(["equi", "--map", "ul_product", "--T", "10", "--grid", "16",
             "--workers", workers, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --workers: expected an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_failing_equi_makes_no_output_directory(tmp_path, capsys):
    # radius 1e7 needs more rows than the row cap: CuspExcursionError, exit 1
    out = tmp_path / "out"
    assert run(["equi", "--map", "ul_product", "--T", "10", "--obs",
                "siegel:indicator:1e7", "--grid", "8", "--out", str(out)]) == 1
    assert "rows of lattice vectors" in capsys.readouterr().err
    assert not out.exists()


# criterion 11 compares runs with each other; these exact values pin the
# config and artifact format itself, which is the same on every host
PINNED_RUNS = [
    pytest.param(["flow", "--map", "heis52", "--lambda", "5/2", "--seed", "3"],
                 "273691298c5231fd",
                 "11871ad8040c220021f109b5148120465c027179e4fc2d53da40966eaabc224b",
                 id="flow-heis52"),
    pytest.param(["flow", "--map", "poly23", "--twodim"], "2964863d69418825",
                 "40239188c7490bc4b70ebe1a8945a807b656b0d0df3273bcd5fe0fb0b9643e7e",
                 id="flow-poly23-twodim"),
    pytest.param(["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.01,0.04,0.09",
                  "--alpha", "1/2"], "9ffe3812df713752", None, id="good"),
    pytest.param(["cover", "--random", "200,2", "--seed", "1"], "cc1510575e2e30b9", None,
                 id="cover"),
    pytest.param(["equi", "--map", "ul_product", "--lambda", "1,1/2", "--T", "20,50",
                  "--obs", "siegel:indicator:1,siegel:bump:1", "--grid", "24",
                  "--seed", "7"], "3797d93dfc7d6765", None, id="equi-criterion-11"),
    pytest.param(["equi", "--map", "poly23_lower", "--t2", "5,10", "--grid", "16"],
                 "d2001760e29c2329", None, id="equi-t2"),
]


@pytest.mark.parametrize("args,digest,flow_sha256", PINNED_RUNS)
def test_config_hashes_and_flow_artifacts_are_pinned(tmp_path, capsys, args, digest,
                                                     flow_sha256):
    assert run(args + ["--out", str(tmp_path)]) == 0
    assert f"config hash: {digest};" in capsys.readouterr().out
    if flow_sha256:
        blob = (tmp_path / "flow.json").read_bytes() + (tmp_path / "flow_config.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == flow_sha256


def test_equi_subcommand_and_determinism(tmp_path):
    base = [
        "equi", "--map", "ul_product", "--lambda", "1,1/2", "--T", "20,50",
        "--obs", "siegel:indicator:1", "--grid", "24", "--seed", "7",
    ]
    outs = []
    for sub, workers in (("a", "1"), ("b", "2"), ("c", "8")):
        out = tmp_path / sub
        assert run(base + ["--out", str(out), "--workers", workers]) == 0
        outs.append((out / "equi.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    configs = [
        json.loads((tmp_path / sub / "equi_config.json").read_text())
        for sub in ("a", "b", "c")
    ]
    assert configs[0] == configs[1] == configs[2]


def test_equi_twodim_mode(tmp_path, capsys):
    code = run([
        "equi", "--map", "poly23_lower", "--t2", "3,5", "--grid", "16",
        "--obs", "siegel:indicator:1", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "equi_plot.csv").read_text().startswith("T,observable")


def test_custom_catalog_file(tmp_path, capsys):
    cat_path = tmp_path / "cat.json"
    dump_catalog(str(cat_path), builtin_catalog())
    code = run(["flow", "--map", "heis52", "--catalog", str(cat_path),
                "--out", str(tmp_path)])
    assert code == 0


def test_out_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BOXFLOW_OUT", str(tmp_path / "envout"))
    code = run(["flow", "--map", "heis52"])
    assert code == 0
    assert (tmp_path / "envout" / "flow.json").exists()


def test_equi_twodim_mode_uses_the_orbit_reference(tmp_path, capsys):
    code = run(["equi", "--map", "poly23", "--t2", "5", "--grid", "64",
                "--out", str(tmp_path)])
    assert code == 0
    header, line = (tmp_path / "equi.csv").read_text().strip().split("\n")
    row = dict(zip(header.split(","), line.split(",")))
    assert row["reference"] == row["average"] == "2"
    assert row["rel_gap"] == "0"


def test_equi_heis52_uses_the_horocycle_reference(tmp_path, capsys):
    # heis52 is the matrix of u_horo: its lattices stay on the periodic
    # horocycle, whose reference is 2, not the Haar value pi
    code = run(["equi", "--map", "heis52", "--T", "10,100", "--grid", "256",
                "--out", str(tmp_path)])
    assert code == 0
    header, *lines = (tmp_path / "equi.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        assert row["reference"] == row["average"] == "2"
        assert row["rel_gap"] == "0"


def test_equi_a_zero_gap_to_a_zero_reference_is_no_gap(tmp_path, capsys):
    # no vector of diag(2, 1/2) Z^2 is shorter than 1/2: at radius 0.4 the
    # average and the reference are both 0, and so is the relative gap
    item = {"name": "const", "vars": ["x"], "entries": [["2", "0"], ["0", "1/2"]],
            "default_lambda": ["1"]}
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps({"maps": [item]}))
    out = tmp_path / "out"
    assert run(["equi", "--map", "const", "--catalog", str(cat_path), "--T", "10",
                "--grid", "8", "--obs", "siegel:indicator:0.4,siegel:bump:0.4",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("reference=0.000000 rel_gap=0.0000%") == 2
    header, *lines = (out / "equi.csv").read_text().strip().split("\n")
    for line in lines:
        assert dict(zip(header.split(","), line.split(",")))["rel_gap"] == "0"


UPPER =[["1", "x"], ["0", "1"]]
UPPER4 = [["1", "x", "0", "0"], ["0", "1", "0", "0"],
          ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
NO_REFERENCE = "no limit reference for a Lie algebra of dimension"


@pytest.mark.parametrize("item,code,message", [
    # sl(2) in a block of SL(3): neither the Haar nor an orbit reference
    pytest.param({"vars": ["x", "y"], "default_lambda": ["1", "1/2"],
                  "entries": [["1 + x*y", "x", "0"], ["y", "1", "0"], ["0", "0", "1"]]},
                 1, f"custom: {NO_REFERENCE} 3 ",
                 id="item0-1-custom: no limit reference for a Lie algebra of dimension 3 "),
    # exp(x (E12 + E23)): a one-dimensional algebra off the elementary matrices
    pytest.param({"entries": [["1", "x", "1/2*x^2"], ["0", "1", "x"], ["0", "0", "1"]]},
                 1, f"custom: {NO_REFERENCE} 1 ",
                 id="item1-1-custom: no limit reference for a Lie algebra of dimension 1 "),
    # a map that is not unimodular; the former "sl" switch no longer exempts it
    pytest.param({"entries": [["2", "x"], ["0", "1"]], "sl": False}, 3, "map is not unimodular",
                 id="item2-3-map is not unimodular"),
    # a unimodular 4x4 map, whose lattices no kernel reduces
    pytest.param({"entries": UPPER4}, 1, "2x2 or 3x3 matrices, not 4x4",
                 id="item3-1-2x2 or 3x3 matrices, not 4x4"),
])
def test_equi_rejects_catalog_maps_it_cannot_measure(tmp_path, capsys, item, code,
                                                     message):
    item = {"name": "custom", "vars": ["x"], "entries": UPPER,
            "default_lambda": ["1"], **item}
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps({"maps": [item]}))
    out = tmp_path / "out"
    assert run(["equi", "--map", "custom", "--catalog", str(cat_path),
                "--T", "10", "--grid", "64", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not any(out.glob("*.csv"))


def test_a_catalog_file_keeps_no_hand_set_reference(tmp_path, capsys):
    # the keys that once set the reference by hand are ignored: ul_product
    # generates SL(2), whose reference is the Haar value pi
    item = {"name": "custom", "vars": ["x", "y"],
            "entries": [["1 + x * y", "x"], ["y", "1"]], "default_lambda": ["1", "1/2"],
            "closed_orbit": True, "period": 1.0, "orbit_entries": UPPER,
            "orbit_vars": ["x"], "product_type": False}
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps({"maps": [item]}))
    assert run(["equi", "--map", "custom", "--catalog", str(cat_path),
                "--T", "10", "--grid", "16", "--out", str(tmp_path)]) == 0
    header, line = (tmp_path / "equi.csv").read_text().strip().split("\n")
    row = dict(zip(header.split(","), line.split(",")))
    assert float(row["reference"]) == math.pi


@pytest.mark.parametrize("workers", ["1", "2"])
def test_equi_exits_1_beyond_the_row_cap(tmp_path, capsys, workers):
    # lambda_1 = lambda_2 = 1e-4 needs about 1e4 rows at R = 1.  The map
    # generates a unipotent group, so the reference sums over its closed
    # orbit, whose points (a, b, 0) of g(0) Z^3 take a row per b: that row
    # enumeration raises in-process before any box; a worker's raise is left
    # to test_experiment's test_the_row_cap_raises_whatever_the_chunk_size
    item = {"name": "cusp3", "vars": ["x", "y"],
            "entries": [["1/10000", "0", "x"], ["0", "1/10000", "y"],
                        ["0", "0", "100000000"]],
            "default_lambda": ["1", "1"]}
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps({"maps": [item]}))
    out = tmp_path / "out"
    assert run(["equi", "--map", "cusp3", "--catalog", str(cat_path), "--T", "10",
                "--grid", "96", "--workers", workers, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "rows of lattice vectors" in err and "Traceback" not in err
    assert not any(out.glob("*.csv"))
