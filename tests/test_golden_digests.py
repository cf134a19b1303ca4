"""The seeded pipeline's artifacts are pinned byte for byte.

`generate --count 4 --seed 7`, then `plan --trace`, then `eval`, on the micro
and mini fixtures at both difficulties, must write exactly the bytes whose
sha256 is pinned below. On micro, `milp` with default flags also compiles each
query; its LP files and `sizes.json` are pinned too (every micro benchmark
carries a budget row, so the budget constraint is covered). The
`.manifest.json` sidecars are left out: they hold absolute paths and a
creation time. A change that alters any output on
purpose updates these pins and says why; a refactor must leave them alone.
"""

from __future__ import annotations

import hashlib

import pytest

from tripsmith.cli import main

from .conftest import FIXTURES

PINS = {
    ("micro", "easy"): {
        "bench.jsonl": "62b5940d321a4db9c658598121d199c6b77c9528ec29202f64057288d7268421",
        "eval.json": "6079f65772361ce21335af82135e4371a2d4acdbfac50cfd53812b7223cd1427",
        "milp/q0000.lp": "64ab1b9a6d56e4080b6bfc1e24c162ee42f444ad7e451b507aeb1a26e81de5d2",
        "milp/q0001.lp": "e5191ced12f5a630572073b254b879d6d8340ad9a731503e2655371770a2560b",
        "milp/q0002.lp": "c8f099fde0ad0eef8b8bfb593b9459722dfb880bc1175e93357f8ec0b1dd3eaa",
        "milp/q0003.lp": "04cf2a0f7f6fc1ba272ad48ea628ac36cbcb464366177d3a14a4eee5fdf5ad99",
        "milp/sizes.json": "ac160d48820985cda0feb3b6863afe8f7c1862e0c6a76f2dbcc0a0bcd3d894d5",
        "plans.jsonl": "67609a88856497ee91a4706dc2886d7828efd9a51950492896abb7b8b1acf70b",
        "trace.jsonl": "6c662396bae0d66a9c4f386ef03abb2f8c6bd514cde282dc2708f6f9fa96c67c",
    },
    ("micro", "medium"): {
        "bench.jsonl": "3aaf48031e49e8bd2c0af45321d13994026b346d8e2735b2696946427899d91d",
        "eval.json": "7bbed17a0cfbd6e9f288dc2ef4260ca345b9075df81ebcdb282bbac1e22ffcd2",
        "milp/q0000.lp": "c5ad0f2dff28c17c6acc13eeffacaa20fed74f450486c5678753e12d3a686f4d",
        "milp/q0001.lp": "7a08082b72db7e80b4c7dbb4b27433151a27f64481fcc6ce7ba4c84197e1e3d2",
        "milp/q0002.lp": "bbb7f283ad90de9efbeb65a1c54ca6150ab7488d15bdf6c99ff1d84ea8a480f7",
        "milp/q0003.lp": "04cf2a0f7f6fc1ba272ad48ea628ac36cbcb464366177d3a14a4eee5fdf5ad99",
        "milp/sizes.json": "ae642266c3d8674aef19c3d4f8c2e97aa78d04ef28eb5d59b4c4441534bd91b4",
        "plans.jsonl": "316efa67be4b8d5a300937c4f2871497ee715e1b1d2c6f43bf93ae7f80463144",
        "trace.jsonl": "5485414bd6ead57e924f70eda4375d373d33e5388aeb08b898de7a8188ca6bcb",
    },
    ("mini", "easy"): {
        "bench.jsonl": "0a90f4d8efba29930e49d8f625f85e376a49eba1861c437c6f6ad2bead736d4e",
        "eval.json": "fc81d55f6d2513fd668d249cbb8beae73129eca9cc2b416a585da3f90f640db3",
        "plans.jsonl": "610a1a5a16546fd192c47743ecaef70ba76f171345b7486e0877b653b6d29e57",
        "trace.jsonl": "63ec7c9d6153a7064491a1597be8ea4356dd3ebc63ae9f30de2424a492ed8a13",
    },
    ("mini", "medium"): {
        "bench.jsonl": "f8e6570fa9c935626b78df45acdaa2461dc306ada5ce58292e801ed067c0f8ff",
        "eval.json": "7fbcf038444df9990dd57983905b9948e2e96ed13dd8d86dfb79a6dce1297310",
        "plans.jsonl": "5015f15adc48ed91942489feed49184c5b64da8fdc8f0ed011f4a55122c1ac04",
        "trace.jsonl": "cc5a4ab6677ced31a0b11262cc2790842e95dd9e9e24b2e2cd4880414660f859",
    },
}


@pytest.mark.parametrize("fixture, difficulty", sorted(PINS))
def test_pipeline_artifacts_match_their_pins(tmp_path, fixture, difficulty):
    db = str(FIXTURES / fixture)
    bench, plans = str(tmp_path / "bench.jsonl"), str(tmp_path / "plans.jsonl")
    assert main(["generate", "--db", db, "--difficulty", difficulty, "--count", "4",
                 "--seed", "7", "--out", bench]) == 0
    assert main(["plan", "--benchmark", bench, "--db", db,
                 "--trace", str(tmp_path / "trace.jsonl"), "--out", plans]) == 0
    assert main(["eval", "--benchmark", bench, "--plans", plans, "--db", db,
                 "--out", str(tmp_path / "eval.json")]) == 0
    if fixture == "micro":
        assert main(["milp", "--benchmark", bench, "--db", db,
                     "--out", str(tmp_path / "milp")]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file() and not path.name.endswith(".manifest.json")
    }
    assert digests == PINS[fixture, difficulty]
