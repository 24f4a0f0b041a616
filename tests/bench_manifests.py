"""Byte identity of every stage's output at 1,000 and 2,000 users.

Criterion 10's seed-3 pipeline (``synth``, ``ingest``, ``features``,
``train``, ``rank`` of each model, ``compare`` and ``recommend --seed 3``)
runs at 1,000 and at 2,000 users in temporary directories, together with
``stats``, ``activity``, ``cluster`` and ``respstats`` on the same data and
a second ``recommend --seed 5 --n-links 120``. The sha256 of each stage's
``manifest.json``, which lists the sha256 of every file the stage wrote,
must equal the table below.

The table was recorded with numpy 2.4.6 (scipy-openblas64 0.3.31),
scipy 1.17.1 (OpenBLAS 0.3.30) and Python 3.11.7, with one BLAS thread
(``tests/conftest.py``). Another numpy, scipy or BLAS may round differently.
A change that moves a byte of any stage updates the table and says why.

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src python -m pytest tests/bench_manifests.py

It takes about 15 s on a 2-core machine.
"""

import hashlib

import pytest

from influxrank.cli import main

# sha256 of each stage's manifest.json, by user count
MANIFEST_SHA256 = {
    1000: {
        "synth": "0d050952603a59bcc0933b2aca6df6ad6ced4b68503e4630feada9b520a3a76b",
        "ingest": "17d22ee8f6b2722b45026fe5094f4fa54eb34c614c30193fb8f013a273d6c214",
        "stats": "b673f9e590f0ac85eddb333e7bace13fbfe454dfce8cc83f2a9d647993932183",
        "activity": "0812f8b14fc395fafdde6628c91ef4a41c3629998ab7d1767d9e7231f783d0dd",
        "cluster": "6501b276c5951dd540ffaaaffcf76e2089c118f5eaa16740d15333b10415535b",
        "respstats": "e600139fc3f97e6173934a486948c36c0c7a840bc1160562aa784a6693abfbb2",
        "features": "170f7fec3c218c68018f7158395d5fefe58e60e33ebbb857fdc4ebda763d9b41",
        "train": "e9ffd8a80ff8437dcf1206d3fd9d204c62a0eda86bd667e97c03b2699502610d",
        "rank_tir": "c2db2f602ef5ef44d3719490905995560fe92cf355122bf95b67a6007a3a6c38",
        "rank_tunkrank": "40adb61073403e31b2dc8a36c9f8993af3f0fd40020f2396b5303056186c25c7",
        "rank_twitterrank": "27def8e98d9da2fca38f773e1fd4f799eb8813f6a77ac6df311705c4f957f452",
        "compare": "416d3a8f7ec0a2dd3f91e5491ece953e95e54792a930c9e9d1066f4e776ab74c",
        "recommend": "fd4db2ab3d12718bf0d2ef8a4bd7e77aec5d7b29eb623a6335b5cb8d81572207",
        "recommend_seed5": "1d20dab96856ee71f0a07261a071304cac84a1dab3fa063d4d2700967d5da5d3",
    },
    2000: {
        "synth": "5f45e2ea4c2568eb4b76435c9999f9c2b25e2b4773b63aa84c6a6c66c15ddc64",
        "ingest": "9bf469cdc4d6996f36f947c1d3e4187f1178ef8ae49354f31c8c7e5be73abcff",
        "stats": "8bbb7cd1c89d4e69b9423faafb4e15e68dbcb63864f4fc086fd76f2683218fa9",
        "activity": "c9b8e385793950d7cb9a7f2501b8b7a320a10f001f8fb85131418673fd06c180",
        "cluster": "7c9c1293056b1c7a053c4eb18596bf43713cd9a530e13281d03cca251df556ba",
        "respstats": "ab9a5b8326e5a9becde678c450afb92dbd7c9b1ea635e43a719a6a2bef1df758",
        "features": "85ace7481b7a776169246a18d88d6bb7db0ba3048d8f9b1ddc2b176724bfe363",
        "train": "266a2acc1040ca39dc7b474bb3ae4bdaca25fd675cb14b573dde554a19d65a0c",
        "rank_tir": "ae31bcc151f6506aa7083120622b5246db3e694296c3d7ce73305be5baf200ba",
        "rank_tunkrank": "2c1b3761eee13032aefc0778df66e696413b73fb24f5159a669166518767bd4c",
        "rank_twitterrank": "10410d180c34c40fd9dc77763782761f844accb5807b7d23fbc2b751ebae83e5",
        "compare": "0dfc5e5f7e2d28bc963b28265b17adb30c1579ee961e0d89ed06c7a65f4e904e",
        "recommend": "55fde5dff83796b93fb324d661f6d65908668925aa3fe16ded1233e2b26aa599",
        "recommend_seed5": "7dbb135a98614e0d9e8dd553d788bda82de12a3471f47f7d00b9fba61419a4bf",
    },
}


def _pipeline(root, users: int) -> dict[str, str]:
    """Runs every stage on the seed-3 data of ``users`` users under
    ``root``: the sha256 of each stage's manifest, by stage."""
    data, model = root / "data", root / "train" / "model.json"
    stages = {
        "synth": ["synth", "--users", users, "--seed", 3],
        "ingest": ["ingest", "--in", root / "synth"],
        "stats": ["stats", "--in", data],
        "activity": ["activity", "--in", data],
        "cluster": ["cluster", "--in", data],
        "respstats": ["respstats", "--in", data],
        "features": ["features", "--in", data],
        "train": ["train", "--instances", root / "features" / "instances.csv"],
        "rank_tir": ["rank", "--in", data, "--model", "tir", "--model-file", model],
        "rank_tunkrank": ["rank", "--in", data, "--model", "tunkrank"],
        "rank_twitterrank": ["rank", "--in", data, "--model", "twitterrank"],
        "compare": ["compare", "--in", data, "--model-file", model],
        "recommend": ["recommend", "--in", data, "--model-file", model, "--seed", 3],
        "recommend_seed5": ["recommend", "--in", data, "--model-file", model, "--seed", 5,
                            "--n-links", 120],
    }
    digests = {}
    for name, args in stages.items():
        out = root / ("data" if name == "ingest" else name)
        main([str(a) for a in args] + ["--out", str(out)], standalone_mode=False)
        digests[name] = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("users", sorted(MANIFEST_SHA256))
def test_manifests_are_byte_identical(tmp_path, users):
    got = _pipeline(tmp_path, users)
    print(f"\n{users}: {got}")
    assert got == MANIFEST_SHA256[users]
