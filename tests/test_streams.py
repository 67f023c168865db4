"""The stream table `rng.Stream` against the streams each command keys.

Draws are independent only when their stream ids differ. Every test here
records the stream of each `rng.stream_seed` call (`CounterRng` included)
while a command runs, and checks that each one is declared, that no two
streams it draws share an id, and that the streams it draws are the ones
the table lists for it (`drawn_by`).
"""

import os
import re

import pytest

from tbsim import optics, rng, tomo
from tbsim.cascade import EmitterParams
from tbsim.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# baseline.cfg with short runs
_SHORT_RUNS = {
    "tomography.cycles_per_setting": "2000",
    "hom.cycles": "20000",
    "autocorr.cycles": "20000",
    "lifetime.counts": "2000",
    "rabi.cycles_per_point": "1000",
}
_SIMULATE = ("tomography", "hom", "autocorr", "lifetime", "rabi")
_MODELS = ("simulate_timebin_run", "simulate_poissonian_source")
_MC_RUNS = 50  # the Monte-Carlo resamples of the benchmark's tomography workload


@pytest.fixture
def keyed(monkeypatch):
    """The stream argument of every `rng.stream_seed` call from here on."""
    keys = []
    stream_seed = rng.stream_seed

    def recording(seed, stream):
        keys.append(stream)
        return stream_seed(seed, stream)

    monkeypatch.setattr(rng, "stream_seed", recording)
    return keys


def _drawn(keys, mc_runs=0):
    """The names of the streams keyed, each declared and with an id of its own.

    A member of `Stream` is declared; a plain id is declared only as
    Monte-Carlo resample k < `mc_runs`, named `TOMO_RESAMPLE+k`.
    """
    names = {}
    for key in keys:
        if isinstance(key, rng.Stream):
            name = key.name
        else:
            k = key - rng.Stream.TOMO_RESAMPLE
            assert 0 <= k < mc_runs, f"stream id {key} is not declared in rng.Stream"
            name = f"TOMO_RESAMPLE+{k}"
        other = names.setdefault(int(key), name)
        assert other == name, f"streams {other} and {name} share id {int(key)}"
    return set(names.values())


def _declared(drawer):
    return {s.name for s in rng.Stream if drawer in s.drawn_by}


def _resamples(runs):
    return {f"TOMO_RESAMPLE+{k}" for k in range(runs)}


@pytest.fixture(scope="module")
def short_cfg(tmp_path_factory):
    with open(os.path.join(ROOT, "baseline.cfg"), encoding="utf-8") as fh:
        cfg = fh.read()
    for key, value in _SHORT_RUNS.items():
        cfg = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", cfg, flags=re.M)
    path = tmp_path_factory.mktemp("cfg") / "short.cfg"
    path.write_text(cfg)
    return str(path)


def test_every_drawer_in_the_table_is_checked_here():
    drawers = {d for s in rng.Stream for d in s.drawn_by}
    assert drawers == {f"simulate {w}" for w in _SIMULATE} | {"analyze tomo", *_MODELS}


@pytest.mark.parametrize("what", _SIMULATE)
def test_simulate_draws_the_streams_declared_for_it(tmp_path, short_cfg, keyed, what):
    assert main(["simulate", what, "--config", short_cfg, "--out", str(tmp_path)]) == 0
    assert _drawn(keyed) == _declared(f"simulate {what}")


@pytest.mark.parametrize("mc_runs", [2, 40])  # 40 resamples reach ids 80, 81 and 100-109
def test_analyze_tomo_draws_one_resample_stream_each(tmp_path, short_cfg, keyed, mc_runs):
    assert main(["simulate", "tomography", "--config", short_cfg, "--out", str(tmp_path)]) == 0
    keyed.clear()
    assert main(["analyze", "tomo", str(tmp_path / "tomography_counts.csv"),
                 "--out", str(tmp_path), "--mc-runs", str(mc_runs)]) == 0
    assert _drawn(keyed, mc_runs) == _resamples(mc_runs)
    assert _declared("analyze tomo") == {"TOMO_RESAMPLE"}


def test_tomography_counts_and_their_resamples_share_no_id(keyed):
    # the benchmark's pairing: counts and their error bars drawn with one seed
    rho = optics.ideal_timebin_density(optics.TimebinStateModel(visibility=0.9))
    table = tomo.simulate_counts(rho, 2000, 0.0625, 7)
    tomo.reconstruct(table, mc_runs=_MC_RUNS, seed=7)
    assert _drawn(keyed, _MC_RUNS) == _declared("simulate tomography") | _resamples(_MC_RUNS)


def test_models_no_command_runs_draw_the_streams_declared_for_them(keyed):
    analyzers = (optics.Interferometer(), optics.Interferometer())
    optics.simulate_timebin_run(EmitterParams(), optics.TimebinStateModel(), analyzers,
                                optics.DetectorModel(), 2000, 7)
    assert _drawn(keyed) == _declared("simulate_timebin_run")
    keyed.clear()
    optics.simulate_poissonian_source(0.1, 300.0, 12500.0, optics.DetectorModel(), 2000, 7)
    assert _drawn(keyed) == _declared("simulate_poissonian_source")

