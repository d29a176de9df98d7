"""Command-line surface: subcommands, exit codes, artifact determinism."""

import json
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


def test_flow_twodim_subcommand(tmp_path, capsys):
    code = run(["flow", "--map", "poly23", "--twodim", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "q = 1" in out and "p = 3" in out and "b = 4" in out


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
        warnings.simplefilter("ignore", UserWarning)  # loadtxt: empty input
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


@pytest.mark.parametrize("args", [
    ["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.1", "--alpha", "1/2",
     "--grid", "50", "--mc-samples", "-5"],
    ["good", "--poly", "x^2", "--box", "0,1", "--deltas", "0.1", "--alpha", "1/2",
     "--grid", "50", "--mc-samples", "0"],
    ["flow", "--map", "heis52", "--trials", "-1"],
    ["equi", "--map", "poly23_lower", "--t2", "5", "--grid", "0"],
    ["equi", "--map", "poly23_lower", "--t2", "5", "--grid", "4"],
])
def test_invalid_counts_are_domain_errors(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 1
    assert "invariant failure" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.txt"))


@pytest.mark.parametrize("args,message", [
    (["equi", "--map", "ul_product", "--T", "10", "--lambda", "1"],
     "1-dimensional box for 2 map variables"),
    (["equi", "--map", "ul_product", "--T", "10", "--obs", "siegel:indicator:nan"],
     "radius must be positive and finite"),
    (["equi", "--map", "ul_product", "--T", "10", "--obs", "siegel:indicator:inf"],
     "radius must be positive and finite"),
    (["equi", "--map", "ul_product", "--T", "10,inf", "--grid", "16"],
     "box parameter must be positive and finite"),
    (["equi", "--map", "ul_product", "--T", "1e200", "--lambda", "2,1", "--grid", "16"],
     "overflows"),
    (["equi", "--map", "poly23_lower", "--t2", "5,inf", "--grid", "16"],
     "T2 values must be positive and finite"),
    (["equi", "--map", "poly23_lower", "--t2", "nan", "--grid", "16"],
     "T2 values must be positive and finite"),
    (["equi", "--map", "poly23_lower", "--t2", "1e100", "--grid", "16"],
     "overflows"),
    (["good", "--poly", "x^2", "--box", "0,inf", "--deltas", "0.1", "--alpha", "1/2"],
     "box corners must be finite"),
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
    ["equi", "--map", "ul_product", "--T", "abc"],
    EQUI + ["--eps0", "x"],
    EQUI + ["--obs", "siegel:indicator:abc"],
    ["equi", "--map", "poly23_lower", "--t2", "5", "--b", "x"],
    EQUI + ["--lambda", "x,1"],
    EQUI + ["--lambda", "1/0"],
    EQUI + ["--J", "0,1;0"],
    ["flow", "--map", "heis52", "--lambda", "1/0"],
    GOOD[:4] + ["0"] + GOOD[5:],
    GOOD[:6] + ["x"] + GOOD[7:],
    GOOD[:8] + ["x"],
    GOOD[:8] + ["1/0"],
    ["cover", "--random", "abc"],
    ["cover", "--random", "5"],
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


UPPER = [["1", "x"], ["0", "1"]]
UPPER4 = [["1", "x", "0", "0"], ["0", "1", "0", "0"],
          ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
ORBIT = {"closed_orbit": True, "period": 1.0}


@pytest.mark.parametrize("item,code,message", [
    # an orbit map of another dimension than the map
    ({**ORBIT, "orbit_entries": [["1", "x", "z"], ["0", "1", "y"], ["0", "0", "1"]],
      "orbit_vars": ["x", "y", "z"]}, 3, "orbit map is 3x3, dim field is 2"),
    # an orbit map that is not unimodular
    ({**ORBIT, "orbit_entries": [["2", "x"], ["0", "1"]]}, 3,
     "orbit map is not unimodular"),
    # a map that is not unimodular; the former "sl" switch no longer exempts it
    ({"entries": [["2", "x"], ["0", "1"]], "sl": False}, 3, "map is not unimodular"),
    # a unimodular 4x4 map, whose lattices no kernel reduces
    ({"dim": 4, "entries": UPPER4, **ORBIT, "orbit_entries": UPPER4}, 1,
     "2x2 or 3x3 matrices, not 4x4"),
])
def test_equi_rejects_catalog_maps_it_cannot_measure(tmp_path, capsys, item, code,
                                                     message):
    item = {"name": "custom", "dim": 2, "vars": ["x"], "entries": UPPER,
            "default_lambda": ["1"], **item}
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps({"maps": [item]}))
    out = tmp_path / "out"
    assert run(["equi", "--map", "custom", "--catalog", str(cat_path),
                "--T", "10", "--grid", "64", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not any(out.glob("*.csv"))
