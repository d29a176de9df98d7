"""The four benchmark workloads, their correctness gates and trace layers.

Every workload is closed loop: one caller runs an iteration, checks it and
only then starts the next.  Lattice workloads sample with
``method="jitter"`` seeded by the benchmark's ``--seed``, so another seed
gives fresh points of the same shape; everything runs with ``workers=1``.

Why these four:
- ``sweep2d_ul`` (criterion-7 map): moderate entries, two observables, so
  three reductions per sample and a Siegel-dominated profile.
- ``bcond2d_poly23`` (criterion-10 sweep): entries up to 5e11, so longer
  reductions and visible float64 error (the exact oracle's nonzero case).
- ``orbit3d_heis3``: the only scalar 3D reduction/enumeration path and the
  only ``periodic_reference`` user; no 2D batch kernel runs here.
- ``symbolic_catalog``: no lattice work; ``polyalg``, ``polymatrix``,
  ``flowlimit`` and the ``goodness`` measures dominate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from boxflow import catalog, experiment, flowlimit, goodness, homspace, polymatrix
from boxflow.polyalg import GenPoly
from boxflow.polymatrix import PolyMatrix

import oracle
from spans import Tracer, count_rows

FLOW_RECORD = Path(__file__).with_name("flow_record.json")

F = Fraction


# ---------------------------------------------------------------------------
# exact flow data recorded from the seed program
# ---------------------------------------------------------------------------


def flow_data(entry):
    """(rescaled map, compute_flow result, twodim_flow result or None) for
    a catalog map under its normalized default box exponents."""
    _, lam = flowlimit.normalize_exponents(entry.default_lambda)
    theta = flowlimit.rescale(entry.matrix, lam, entry.map_vars)
    res = flowlimit.compute_flow(theta)
    two = flowlimit.twodim_flow(entry.matrix, *entry.map_vars) if entry.k == 2 else None
    return theta, res, two


def encode_flow(res) -> dict:
    return {
        "q": str(res.q),
        "d": res.d,
        "limits": [m.to_text() for m in res.limits],
        "alpha_vars": list(res.alpha_vars),
    }


def encode_twodim(two) -> dict:
    return {
        "q": str(two.q),
        "d0": two.d0,
        "lambda_of_y": two.lambda_of_y.to_text(),
        "d": two.d,
        "lambda0": two.lambda0.to_text(),
        "p": two.p,
        "b": str(two.b),
        "ratio_set": [[str(a), str(b)] for a, b in two.ratio_set],
        "dominant_ratio": (
            [str(x) for x in two.dominant_ratio] if two.dominant_ratio else None
        ),
    }


def load_flow_record() -> dict:
    with open(FLOW_RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def flow_errors(name: str, record: dict, res=None, two=None) -> list:
    """Differences between computed flow data and the exact recorded data,
    compared with ``==`` on Fractions and PolyMatrix objects."""
    errs = []
    if res is not None:
        rec = record["compute_flow"][name]
        limits = tuple(PolyMatrix.from_text(m) for m in rec["limits"])
        if not (
            res.q == F(rec["q"])
            and res.d == rec["d"]
            and tuple(res.limits) == limits
            and res.generator == limits[0]
            and tuple(res.alpha_vars) == tuple(rec["alpha_vars"])
        ):
            errs.append(f"{name}: compute_flow differs from the recorded flow")
    if two is not None:
        rec = record["twodim_flow"][name]
        dom = rec["dominant_ratio"]
        if not (
            two.q == F(rec["q"])
            and two.d0 == rec["d0"]
            and two.lambda_of_y == PolyMatrix.from_text(rec["lambda_of_y"])
            and two.d == rec["d"]
            and two.lambda0 == PolyMatrix.from_text(rec["lambda0"])
            and two.p == rec["p"]
            and two.b == F(rec["b"])
            and tuple(two.ratio_set) == tuple((F(a), F(b)) for a, b in rec["ratio_set"])
            and two.dominant_ratio == (tuple(F(x) for x in dom) if dom else None)
        ):
            errs.append(f"{name}: twodim_flow differs from the recorded flow")
    return errs


def _nan_errors(label: str, values) -> list:
    return [f"{label}: NaN"] if any(math.isnan(float(v)) for v in values) else []


# ---------------------------------------------------------------------------
# lattice sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeSweep:
    """``convergence_sweep`` under the map's default box exponents (``b`` is
    None) or ``twodim_bcondition_sweep`` with box exponent ``b``, on one
    catalog map, with its per-iteration correctness gates."""

    name: str
    map_name: str
    observables: tuple
    T_list: tuple
    grid: int
    b: Optional[Fraction] = None
    exact_value: Optional[float] = None       # every average and reference
    rel_gap_gate: Optional[tuple] = None      # (T, observable, max rel_gap)
    oracle: bool = False
    root = "experiment"

    def setup(self, seed: int):
        entry = catalog.builtin_catalog()[self.map_name]
        fs = tuple(homspace.parse_observable(o) for o in self.observables)
        _, res, two = flow_data(entry)
        errs = flow_errors(entry.name, load_flow_record(), res=res, two=two)
        return SimpleNamespace(entry=entry, fs=fs, seed=seed, flow_errors=errs)

    def run(self, st):
        if self.b is None:
            return experiment.convergence_sweep(
                st.entry, st.entry.default_lambda, self.T_list, st.fs, grid=self.grid,
                seed=st.seed, workers=1, method="jitter",
            )
        return experiment.twodim_bcondition_sweep(
            st.entry, self.b, self.T_list, st.fs, grid=self.grid,
            seed=st.seed, workers=1, method="jitter",
        )

    def box_samples(self, st) -> int:
        """Distinct box sample points per iteration (one box per T)."""
        return self.grid ** st.entry.k * len(self.T_list)

    @staticmethod
    def samples(out) -> int:
        """Box samples delivered in the result rows."""
        return sum(r.samples for r in out.rows)

    @staticmethod
    def fingerprint(out) -> str:
        return out.csv_text() + repr(out.diagnostics)

    def check(self, st, out) -> list:
        errs = list(st.flow_errors)
        if len(out.rows) != len(self.T_list) * len(st.fs):
            errs.append(f"{len(out.rows)} rows, expected {len(self.T_list) * len(st.fs)}")
        for r in out.rows:
            label = f"T={r.T:g} {r.observable}"
            if r.samples != self.grid ** st.entry.k:
                errs.append(f"{label}: {r.samples} samples, expected {self.grid ** st.entry.k}")
            errs += _nan_errors(label, [
                r.average, r.reference, r.gap, r.rel_gap, r.error_bound,
                *(frac for _, frac in r.nondiv),
            ])
            if self.exact_value is not None and not (
                abs(r.average - self.exact_value) <= 1e-6
                and abs(r.reference - self.exact_value) <= 1e-6
            ):
                errs.append(
                    f"{label}: average {r.average!r} / reference {r.reference!r}, "
                    f"expected {self.exact_value}"
                )
            if self.rel_gap_gate is not None:
                T, obs, bound = self.rel_gap_gate
                if r.T == T and r.observable == obs and not r.rel_gap < bound:
                    errs.append(f"{label}: rel_gap {r.rel_gap:.4%} not below {bound:.0%}")
        for diag in out.diagnostics:
            errs += _nan_errors("diagnostic", diag)
        return errs

    def oracle_check(self, st) -> Optional[dict]:
        """Exact-oracle comparison on every box of the sweep, indicator
        observable only; None once the program's 2D kernels are gone."""
        if not all(hasattr(homspace, n) for n in ("sl2_reduce_batch", "siegel_batch")):
            return None
        f = next(f for f in st.fs if f.kind == homspace.INDICATOR_BALL)
        per_box = {}
        for i, T in enumerate(self.T_list):
            if self.b is None:
                box = experiment.BoxSpec(lam=st.entry.default_lambda, T=T, grid=self.grid)
                region = box.realized_region()
            else:
                # the sweep's box [0, 1.01 T2^b] x [0, T2]
                region = goodness.BoxRegion((0.0, 0.0), (1.01 * T ** float(self.b), T))
            per_box[f"{T:g}"] = oracle.mismatches(st.entry, region, self.grid, f, st.seed, i)
        return per_box


# ---------------------------------------------------------------------------
# symbolic catalog pass
# ---------------------------------------------------------------------------

_RESIDUAL_POINTS = ((-1.0, 1e3), (1.0, 1e3))   # (s, t) for limit_residual
_REL_DELTAS = np.geomspace(0.005, 0.9, 24)     # deltas / sup|f| for fit_min_c


def _random_poly_case(rng, k: int, degree: int):
    """Seeded polynomial in k variables of the given degree on a random box
    (the generator of acceptance criterion 4 with its shape fixed, so every
    seed costs the same)."""
    var_order = ["x", "y"][:k]
    p = GenPoly.zero()
    for _ in range(3):
        powers = {v: int(rng.integers(0, degree + 1)) for v in var_order}
        coeff = F(int(rng.integers(-40, 41)), int(rng.integers(1, 8)))
        p = p + GenPoly.monomial(coeff, powers)
    lead = {v: 0 for v in var_order}
    lead[var_order[0]] = degree
    p = p + GenPoly.monomial(F(int(rng.integers(1, 5))), lead)
    box = goodness.BoxRegion(
        tuple(float(rng.uniform(-2, 2)) for _ in range(k)),
        tuple(float(rng.uniform(2.5, 4)) for _ in range(k)),
    )
    return p, var_order, box, F(1, k * degree), 512 if k == 1 else 80


def _random_cubes(rng, k: int, n: int):
    """Seeded covering instance of n cubes in dimension k (the generator of
    acceptance criterion 5 with its shape fixed)."""
    return rng.random((n, k)) * 5.0, rng.random(n) * 0.9 + 0.02


@dataclass(frozen=True)
class SymbolicCatalog:
    """One pass over the exact flow pipeline of every catalog map, plus
    sublevel fits and cube covers on seeded random inputs."""

    name: str
    polys: int
    covers: int
    trials: int
    root = "symbolic"

    def setup(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x73796D]))
        return SimpleNamespace(
            seed=seed,
            record=load_flow_record(),
            polys=[_random_poly_case(rng, 1 + i % 2, 1 + (i // 2) % 4)
                   for i in range(self.polys)],
            covers=[_random_cubes(rng, 1 + i % 3, 40) for i in range(self.covers)],
        )

    def run(self, st):
        flows = {}
        for name, entry in catalog.builtin_catalog().items():
            theta, res, two = flow_data(entry)
            report = flowlimit.group_law_check(res, trials=self.trials, seed=st.seed)
            alphas = {v: 1.0 for v in res.alpha_vars}
            resid = [flowlimit.limit_residual(theta, res, alphas, s, t)
                     for s, t in _RESIDUAL_POINTS]
            if two is not None:
                resid.append(flowlimit.twodim_residual(entry.matrix, two, 1.0, 1e4, 10.0))
            flows[name] = (res, two, report, tuple(resid))
        fits = []
        for p, var_order, box, alpha, grid in st.polys:
            f = goodness.poly_grid_fn(p, var_order)
            deltas = goodness.sup_norm(f, box, grid) * _REL_DELTAS
            fits.append((
                goodness.fit_min_c(f, box, alpha, deltas, grid),
                goodness.sublevel_measure(f, box, float(deltas[12]), grid),
            ))
        covers = [goodness.besicovitch_select(c, h) for c, h in st.covers]
        return SimpleNamespace(flows=flows, fits=fits, covers=covers)

    @staticmethod
    def fingerprint(out) -> str:
        parts = []
        for name, (res, two, report, resid) in out.flows.items():
            parts.append((name, encode_flow(res), two and encode_twodim(two),
                          report.passed, report.exp_max_err, resid))
        parts.append(out.fits)
        parts.append([(len(c.halfwidths), c.covered, c.max_multiplicity,
                       sorted(c.multiplicity_histogram.items())) for c in out.covers])
        return repr(parts)

    def check(self, st, out) -> list:
        errs = []
        if set(out.flows) != set(st.record["compute_flow"]):
            errs.append(f"catalog maps {sorted(out.flows)} differ from the record")
        for name, (res, two, report, resid) in out.flows.items():
            if name in st.record["compute_flow"]:
                errs += flow_errors(name, st.record, res=res, two=two)
            if not report.passed:
                errs.append(f"{name}: group law check failed: {report.failures[:1]}")
            errs += _nan_errors(f"{name} residuals", resid)
        errs += _nan_errors("sublevel fits", [x for fit in out.fits for x in fit])
        for i, c in enumerate(out.covers):
            if not (c.covered and c.within_bound):
                errs.append(f"cover {i}: covered={c.covered}, "
                            f"multiplicity {c.max_multiplicity} > {c.configured_bound}")
        return errs


WORKLOADS = {
    w.name: w
    for w in (
        LatticeSweep(
            name="sweep2d_ul",
            map_name="ul_product",
            observables=("siegel:indicator:1", "siegel:bump:1"),
            T_list=(1e2, 1e3),
            grid=256,
            rel_gap_gate=(1e3, "siegel:indicator:1", 0.05),
            oracle=True,
        ),
        LatticeSweep(
            name="bcond2d_poly23",
            map_name="poly23_lower",
            observables=("siegel:indicator:1",),
            T_list=(5.0, 10.0, 20.0),
            grid=256,
            b=F(4),
            oracle=True,
        ),
        LatticeSweep(
            name="orbit3d_heis3",
            map_name="heis3",
            observables=("siegel:indicator:1",),
            T_list=(10.0, 20.0),
            grid=24,
            exact_value=2.0,
        ),
        SymbolicCatalog(name="symbolic_catalog", polys=40, covers=40, trials=100),
    )
}


# ---------------------------------------------------------------------------
# trace layers
# ---------------------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer at the names their callers
    use.  Names that no longer exist are recorded in ``tracer.absent``."""
    t = tracer
    E = experiment

    def grid_closure(fn):
        return t.wrap_closure(fn, "goodness.grid_eval")

    # reached by the sweeps through boxflow.experiment
    t.wrap(E, "sl2_reduce_batch", "homspace.sl2_reduce_batch", count=count_rows)
    t.wrap(E, "siegel_batch", "homspace.siegel_batch", count=count_rows)
    t.wrap(E, "siegel_transform", "homspace.siegel_transform")
    t.wrap(E, "reduce_basis", "homspace.reduce_basis")
    t.wrap(E, "haar_expectation", "homspace.haar_expectation")
    t.wrap(E, "periodic_reference", "experiment.periodic_reference")
    t.wrap(E, "poly_grid_fn", "goodness.poly_grid_fn", result=grid_closure)
    t.wrap(E, "twodim_flow", "flowlimit.twodim_flow")
    t.wrap(E, "twodim_residual", "flowlimit.twodim_residual")
    # the 2D scalar fallback, reached by siegel_batch inside homspace
    t.wrap(homspace, "siegel_transform", "homspace.siegel_transform")
    # reached by the benchmark's own calls
    t.wrap(catalog, "builtin_catalog", "catalog.builtin_catalog")
    for fn in ("compute_flow", "group_law_check", "limit_residual",
               "twodim_flow", "twodim_residual"):
        t.wrap(flowlimit, fn, f"flowlimit.{fn}")
    t.wrap(goodness, "poly_grid_fn", "goodness.poly_grid_fn", result=grid_closure)
    t.wrap(goodness, "sup_norm", "goodness.sup_norm")
    t.wrap(goodness, "fit_min_c", "goodness.sublevel")
    t.wrap(goodness, "sublevel_measure", "goodness.sublevel")
    t.wrap(goodness, "besicovitch_select", "goodness.cover")
    # reached through the PolyMatrix class and the polymatrix module
    for fn in ("determinant", "inverse_sl", "evaluate_mp"):
        t.wrap(PolyMatrix, fn, f"polymatrix.{fn}")
    t.wrap(polymatrix, "parse_poly", "polyalg.parse_poly")
    t.wrap(GenPoly, "substitute", "polyalg.substitute")


_SELF_LAYERS = (
    "homspace.siegel_batch", "homspace.sl2_reduce_batch", "homspace.reduce_basis",
    "homspace.haar_expectation", "experiment.periodic_reference",
    "goodness.grid_eval", "goodness.sup_norm", "goodness.sublevel", "goodness.cover",
    "flowlimit.compute_flow", "flowlimit.group_law_check", "flowlimit.limit_residual",
    "flowlimit.twodim_flow", "flowlimit.twodim_residual", "catalog.builtin_catalog",
    "polymatrix.determinant", "polymatrix.inverse_sl", "polymatrix.evaluate_mp",
    "polyalg.parse_poly", "polyalg.substitute",
)
_UNDER_REF = "~under_experiment.periodic_reference"
_FALLBACK = "homspace.siegel_transform~under_homspace.siegel_batch"


def layer_metrics(agg: dict, wl, st, out) -> dict:
    """Per-layer metrics of one traced iteration from its aggregated spans."""

    def g(key, field):
        return agg.get(key, {}).get(field, 0)

    m = {f"{layer}.self_s": g(layer, "self_s") for layer in _SELF_LAYERS}
    batch_samples = g("homspace.siegel_batch", "n")
    fallback_calls = g(_FALLBACK, "calls")
    st_name = "homspace.siegel_transform"
    m.update({
        "experiment.self_s": g("experiment", "self_s"),
        "experiment.periodic_reference.total_s": g("experiment.periodic_reference", "total_s"),
        "experiment.periodic_reference.calls": g("experiment.periodic_reference", "calls"),
        "homspace.siegel_batch.samples": batch_samples,
        "homspace.sl2_reduce_batch.samples": g("homspace.sl2_reduce_batch", "n"),
        "homspace.reduce_basis.calls": g("homspace.reduce_basis", "calls"),
        f"{st_name}.under_siegel_batch.self_s": g(_FALLBACK, "self_s"),
        f"{st_name}.under_siegel_batch.calls": fallback_calls,
        f"{st_name}.under_experiment.self_s": g(st_name, "self_s") - g(_FALLBACK, "self_s"),
        f"{st_name}.under_experiment.calls": g(st_name, "calls") - fallback_calls,
        "homspace.fallback_share": fallback_calls / batch_samples if batch_samples else 0.0,
        "goodness.grid_eval.points": g("goodness.grid_eval", "n"),
    })
    if isinstance(wl, LatticeSweep) and out is not None:
        box_reductions = (
            g("homspace.sl2_reduce_batch", "n")
            - g("homspace.sl2_reduce_batch" + _UNDER_REF, "n")
            + g("homspace.reduce_basis", "calls")
            - g("homspace.reduce_basis" + _UNDER_REF, "calls")
        )
        m["homspace.reductions_per_sample"] = box_reductions / wl.box_samples(st)
        m["experiment.samples"] = wl.samples(out)
        m["experiment.box_samples"] = wl.box_samples(st)
        m["experiment.excluded"] = sum(r.excluded for r in out.rows)
    else:
        m["homspace.reductions_per_sample"] = 0.0
        m["experiment.samples"] = m["experiment.box_samples"] = m["experiment.excluded"] = 0
    return m


def setup_metrics(agg: dict) -> dict:
    """Where the in-process set-up time went, by layer family."""

    def family(prefix):
        return sum(v["self_s"] for k, v in agg.items()
                   if k.startswith(prefix) and "~" not in k)

    return {
        "setup.total_s": agg.get("setup", {}).get("total_s", 0.0),
        "setup.catalog.builtin_catalog.self_s": family("catalog."),
        "setup.flowlimit.self_s": family("flowlimit."),
        "setup.polymatrix.self_s": family("polymatrix."),
        "setup.polyalg.self_s": family("polyalg."),
    }
