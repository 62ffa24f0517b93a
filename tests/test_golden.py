"""Golden bytes: SHA-256 of experiment artifacts at small fixed configs.

The hashes pin the exact bytes of the CSV, JSONL and ``summary.json`` files
that ``coupling-grand``, ``speed-curve`` and ``simulate`` write, and of
``couplings.write_events_jsonl`` for a range of seeds.  A change to a
construction, its RNG order, its queries or the replica fan-out that alters a
byte fails here.  ``manifest.json`` is left out: it records the wall time.
"""

import hashlib

import pytest

from tbrw import couplings
from tbrw.config import parse_config
from tbrw.experiments import run_experiment

GOLDEN_RUNS = {
    "coupling-grand": (
        {"horizon": 30, "replicas": 6, "workers": 1,
         "params": {"p_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                    "coalescence": {"p": 0.5, "q": 0.55, "n": 10},
                    "marginal": {"p": 0.5, "steps": 30, "replicas": 6}}},
        {"grand_events.jsonl":
         "0594339cbd420dcc7e496e817a7cecab5e2eea3c6fa5ed7f97afbbce16dfa4e2",
         "summary.json":
         "48224b9fc6ee1945341fa39a12d057c457d6d1dda4ae9402ef07e6527b1f4e86"}),
    "speed-curve": (
        {"horizon": 50, "replicas": 10, "workers": 2,
         "params": {"p_grid": [0.2, 0.5, 0.9]}},
        {"speed_curve.csv":
         "7b14fbb20a966497b184158a8724b1e5410ac399ca805824b6e7f6375f6c1db0",
         "summary.json":
         "c54586e9400e7f7506b7d6d824bb3ca7d26919077012d64f401049cddce8c952"}),
    "simulate": (
        {"horizon": 300, "schedule": {"kind": "bernoulli", "p": 0.5}},
        {"trajectory.csv":
         "863474c11fece5d6afc9e76017ac9d08c64067bacfb2ebadeb174eee5fd5c8e9",
         "trajectory.json":
         "94092eea7e2d3c3397e57913e5f062b36746fe68a4290dbba1a7178d119289f4",
         "renewals.csv":
         "f976893d44a12b33f2d3ab15cddde23992eaf12ba041d7cd0d1c0dd185644e8e",
         "summary.json":
         "c725d566d21ad06835358a4230cfeb1580a92d7e5653d5cc655d5c0f40a9ec39"}),
}

# write_events_jsonl of grand_run("edge", 60, seed), seeds 0..9
GRAND_RUN_EVENTS = [
    "3a662482bd89d6184a3dd9d3f91faad45a52db6309e8c9217ac462b75ea2a199",
    "898faad0855b371889d20c7290786a80bea7105569834d7d36bd1028958e2f7c",
    "003dca463556248c27a7df78ac03150ebdae9d010379544c8fdb38ecae7715dc",
    "c67c7a4244657e805d49e63a8737a6ca08f3427dda8d2621e3fc0f4f7968c49a",
    "a484a36e8ed9343e16ce3147f5de8d8290a99b4ab61ad2e7bfbb700ffac75733",
    "07c2d708174a0a27a4baeaf2ac43fd48e573c0ce1291d4a4b10e765e8cb45b1e",
    "85d68571044415e0c6b9e041bb9738b84dcb81a83e177e92930298e5bff46d4f",
    "bd783ae58f849c2c0a556e447deed8ce130cb3b76a0cfc72b1b289f7c86f91bc",
    "3007f5f0c93584ab767e7692c12e11a482c857de2acb734f5dec208d43008e6b",
    "c007bc3627383ed50c11f30369784270ff207ff03c693803f104b6947124b430",
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("experiment", sorted(GOLDEN_RUNS))
def test_experiment_artifacts_golden(tmp_path, experiment):
    config, hashes = GOLDEN_RUNS[experiment]
    run_experiment(parse_config({**config, "experiment": experiment,
                                 "seed": 7, "out": str(tmp_path)}))
    assert {name: _sha256(tmp_path / name) for name in hashes} == hashes


@pytest.mark.parametrize("seed", range(10))
def test_grand_run_events_golden(tmp_path, seed):
    path = tmp_path / "events.jsonl"
    couplings.write_events_jsonl(couplings.grand_run("edge", 60, seed).events,
                                 path)
    assert _sha256(path) == GRAND_RUN_EVENTS[seed]
