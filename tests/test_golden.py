"""Golden bytes: SHA-256 of experiment artifacts at small fixed configs.

The hashes pin the exact bytes of every CSV, JSONL and ``summary.json`` file
that each of the 11 experiments writes, on one worker and on two, and of
``couplings.write_events_jsonl`` for a range of seeds.  A change to a
construction, its RNG order, its queries, its writers or the replica fan-out
that alters a byte fails here.  ``manifest.json`` is left out: it records the
wall time.
"""

import hashlib

import pytest

from tbrw import couplings
from tbrw.config import parse_config
from tbrw.experiments import run_experiment

GOLDEN_RUNS = {
    "coupling-grand": (
        {"horizon": 30, "replicas": 6,
         "params": {"p_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                    "coalescence": {"p": 0.5, "q": 0.55, "n": 10},
                    "marginal": {"p": 0.5, "steps": 30, "replicas": 6}}},
        {"grand_events.jsonl":
         "0594339cbd420dcc7e496e817a7cecab5e2eea3c6fa5ed7f97afbbce16dfa4e2",
         "summary.json":
         "48224b9fc6ee1945341fa39a12d057c457d6d1dda4ae9402ef07e6527b1f4e86"}),
    "speed-curve": (
        {"horizon": 50, "replicas": 10,
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
         "ff0a98fdd61bb6cad56ce5418287d2661e8aa641766f3d1edec6e83436448fc2",
         "renewals.csv":
         "f976893d44a12b33f2d3ab15cddde23992eaf12ba041d7cd0d1c0dd185644e8e",
         "summary.json":
         "c725d566d21ad06835358a4230cfeb1580a92d7e5653d5cc655d5c0f40a9ec39"}),
    "renewal-stats": (
        {"horizon": 300, "replicas": 8,
         "schedule": {"kind": "iid", "support": [0, 1, 3],
                      "probs": [0.5, 0.3, 0.2]},
         "params": {"initial": {"parents": [None, 0, 0, 1, 1, 2], "walker": 4}}},
        {"renewals.csv":
         "278a7905263592440160d07e16434009d4496d8b742bd8192925f7810115a4d7",
         "summary.json":
         "90d3716832da2c404d98fe82e1eff113b5232de711a896e6ff99c42c8e3e2946"}),
    "degree-dist": (
        {"horizon": 2000, "params": {"gamma": 0.5}},
        {"degree.csv":
         "46a3719cb25dcce7693ece22a7586c9448b754db37eeb907e2cb74026e158c43",
         "summary.json":
         "5f2ccb2aeaabaa4a1ca862e0ee9ad9cf896df7f16a2a6a48ca52988b6e594b73"}),
    "tail": (
        {"horizon": 200, "replicas": 200},
        {"tail.csv":
         "95f65f7eb91ba998464d4015d17fce25ad43bfd4718f5dd956d557b8d2b5487b",
         "summary.json":
         "9d77e70b51475a0f6a9da400afdc065057923d8c9f373dd5b4173f7701948a16"}),
    "clt": (
        {"horizon": 1000, "replicas": 20},
        {"clt.csv":
         "ca8d140b7f2a89b77f8256027dd6d9d4d9354129abd49b8c1ab749b1d912b3a7",
         "summary.json":
         "8439a5a3e5af762dd5df957f358272bbc30e00475ed143b599eec37f03f506a2"}),
    "lil": (
        {"horizon": 1000, "replicas": 10, "params": {"n_min": 10}},
        {"lil.csv":
         "d1c05a722e39d36c456abb9b9ae4a47ee214b599619630ccc5f3d10e4b77f7cd",
         "summary.json":
         "8736545b8d897a8a42fabaee0513c71eb53c9ea0f555c348e31df78b87599c56"}),
    "coupling-tv": (
        {"horizon": 100, "replicas": 10},
        {"tv_pairs.csv":
         "022c4ff7285160938d80669b009a3a589e7722e62180221e1bc1c7826b9d4b6b",
         "summary.json":
         "ecb872725574079c1c2b43631ee50eca95daaaa26e298e7672f068799bd48b70"}),
    "coupling-monotone": (
        {"horizon": 100, "replicas": 5},
        {"summary.json":
         "ec67fd96c9ed2b0f72cb367a5d0d4dae9c9f835f7b1c2236e86c4a9a62f3a6d4"}),
    "counterexample": (
        {"params": {"p": 0.2, "q": 0.9, "j_max": 2, "eval_replicas": 2,
                    "pilot": {"replicas": 4, "reference_horizon": 500}}},
        {"checkpoints.csv":
         "e2e3002512e7c303c7b8f2a5193556f812e6693480593f2e431f1d711893c1ed",
         "summary.json":
         "661d5d5ee99dc1f5bd99b450a6e7d1dc13287d6f4c99ab9013ddd1cae0bb3389"}),
}

# each config on one worker (the id is the experiment's name) and on two
GOLDEN_CASES = [pytest.param(name, workers,
                             id=name if workers == 1 else f"{name}-2-workers")
                for name in sorted(GOLDEN_RUNS) for workers in (1, 2)]

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


@pytest.mark.parametrize("experiment, workers", GOLDEN_CASES)
def test_experiment_artifacts_golden(tmp_path, experiment, workers):
    config, hashes = GOLDEN_RUNS[experiment]
    run_experiment(parse_config({**config, "experiment": experiment, "seed": 7,
                                 "workers": workers, "out": str(tmp_path)}))
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert written == set(hashes), "every artifact but the manifest is pinned"
    assert {name: _sha256(tmp_path / name) for name in hashes} == hashes


@pytest.mark.parametrize("seed", range(10))
def test_grand_run_events_golden(tmp_path, seed):
    path = tmp_path / "events.jsonl"
    couplings.write_events_jsonl(couplings.grand_run("edge", 60, seed).events,
                                 path)
    assert _sha256(path) == GRAND_RUN_EVENTS[seed]
