"""The per-family forecast fan-out: parallel == serial, and it seeds views."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.context import AnalysisContext
from repro.core.prediction import (
    MIN_SERIES_POINTS,
    predict_all_families,
    predict_family_dispersion,
)
from repro.datagen.config import DatasetConfig
from repro.datagen.generator import generate_dataset
from repro.io.colstore import save_dataset_npz


def test_predict_all_matches_per_family(small_ds):
    ctx = AnalysisContext(small_ds)  # unshared: keep session fixtures clean
    out = predict_all_families(ctx, jobs=1)
    assert out  # at least one family has enough points at this scale
    for family, forecast in out.items():
        direct = predict_family_dispersion(ctx, family)
        np.testing.assert_array_equal(forecast.prediction, direct.prediction)
        assert forecast.comparison == direct.comparison


def test_predict_all_parallel_matches_serial(small_ds):
    serial = predict_all_families(AnalysisContext(small_ds), jobs=1)
    parallel = predict_all_families(AnalysisContext(small_ds), jobs=2)
    assert set(serial) == set(parallel)
    for family in serial:
        np.testing.assert_array_equal(
            serial[family].prediction, parallel[family].prediction
        )
        assert serial[family].comparison == parallel[family].comparison


def test_predict_all_seeds_context_views(small_ds):
    ctx = AnalysisContext(small_ds)
    out = predict_all_families(ctx, jobs=2)
    for family, forecast in out.items():
        # Table IV's memoized accessor must reuse the fan-out's result.
        assert ctx.dispersion_forecast(family) is forecast


def test_predict_all_skips_short_series(small_ds):
    ctx = AnalysisContext(small_ds)
    out = predict_all_families(ctx, jobs=1)
    from repro.core.prediction import _dispersion_series

    for family in small_ds.active_families:
        eligible = _dispersion_series(ctx, family, True).size >= MIN_SERIES_POINTS
        assert (family in out) == eligible


#: Runs in a fresh interpreter (``sys.modules`` starts without scipy):
#: one ``jobs=2`` fan-out that fits ARIMA models, then the ``jobs=1``
#: forecasts for comparison.  Prints what the parent held after the
#: fan-out, the families it forecast, and whether they equal the
#: ``jobs=1`` forecasts.
_FORK_SCRIPT = """
import json, sys
import numpy as np
import repro.obs as obs
from repro.core.context import AnalysisContext
from repro.core.prediction import predict_all_families
from repro.io.colstore import load_dataset_npz

path, mode = sys.argv[1], sys.argv[2]
ds = load_dataset_npz(path, mmap=False)
clean = not any(m.split(".")[0] == "scipy" for m in sys.modules)
if mode == "prewarm":
    ctx = AnalysisContext(ds)
    ctx.prewarm(jobs=2)
    forked = {
        key[1]: value for key, value in ctx.materialized().items()
        if key[0] == "dispersion_forecast"
    }
else:
    forked = predict_all_families(AnalysisContext(ds), jobs=2)
held = [m for m in ("scipy.optimize", "scipy.signal") if m in sys.modules]
tree = obs.registry().stage_tree()
stage = tree.children.get("prewarm", tree) if mode == "prewarm" else tree
load_calls = getattr(stage.children.get("timeseries.load_backend"), "n_calls", 0)
serial = predict_all_families(AnalysisContext(ds), jobs=1)
# prewarm forecasts the Table IV families only, a subset of ``serial``.
same = set(forked) <= set(serial) and all(
    np.array_equal(forked[f].prediction, serial[f].prediction)
    and forked[f].comparison == serial[f].comparison
    for f in forked
)
print(json.dumps({
    "clean": clean, "held": held, "load_calls": load_calls,
    "families": sorted(forked), "same": same,
}))
"""


@pytest.fixture(scope="module")
def fitting_store(tmp_path_factory):
    """Scale 0.05, seed 7: Table IV fits at least one family here."""
    ds = generate_dataset(DatasetConfig(seed=7, scale=0.05), jobs=2)
    return save_dataset_npz(ds, tmp_path_factory.mktemp("fork") / "ds.npz")


@pytest.mark.parametrize("mode", ["prewarm", "predict"])
def test_forked_forecasts_inherit_the_backend(fitting_store, mode):
    # The parent loads scipy before it forks forecast work; without that
    # each worker of each fan-out would import it again.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_SCRIPT, str(fitting_store), mode],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["clean"], "scipy was loaded before the fan-out"
    assert out["families"], "the fan-out fitted no family"
    assert out["held"] == ["scipy.optimize", "scipy.signal"]
    # ...once, attributed to its own stage under the fan-out's caller.
    assert out["load_calls"] == 1
    assert out["same"]
