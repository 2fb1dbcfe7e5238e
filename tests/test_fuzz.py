"""Seeded fuzzing of the CLI's inputs: every case either succeeds or fails
with exactly one ``error:<category>:`` line on stderr.

``pvg eval`` cases corrupt a checkpoint: a manifest leaf replaced, a
parameter file deleted, truncated or with one byte flipped. Other ``pvg
eval`` cases corrupt the dataset: the image file or the labels CSV truncated
or with one byte flipped, or one CSV cell replaced. ``pvg count`` cases
replace a leaf of a run config. The cases are fixed by their seeds, and each
runs ``cli.main`` in-process on files under ``tmp_path``.
"""

import csv
import io
import json
import random
import re

import pytest

from pvg.cli import main as cli_main
from pvg.data import make_two_class_patches, save_dataset
from pvg.net import Model, ModelConfig, save_checkpoint
from pvg.train import RunConfig

CASES = 120  # per seed and command
SEEDS = [0, 1]
# A narrow model keeps an eval that succeeds cheap; its stage-0 grid is 16 x 16.
MODEL = dict(stage_widths=[64, 64, 64, 64], image_size=16, patch_size=1)
VALUES = [
    0, 1, 2, 3, -1, 16, 64, 1000, 2**31, 10**30, 10**400, 0.5, -1e-300, 1e300, 3e38,
    float("nan"), float("inf"), True, False, None, "", "MaxE", "gelu", [], {}, [1, 1, 2, 1],
]
ERROR_LINE = re.compile(r"error:[a-z-]+: [^\n]*\n")
DATA_CASES = 80  # per seed
# A labels cell past csv's default field limit of 131072 characters.
LONG_CELL = "7" * 200_000


def leaves(value, path=()):
    """The paths of every scalar inside nested dicts and lists."""
    if isinstance(value, dict):
        return [p for k in sorted(value) for p in leaves(value[k], path + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in leaves(v, path + (i,))]
    return [path]


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def run_case(argv, case: str, capsys) -> None:
    try:
        code = cli_main(argv)
    except Exception as e:  # an escaped exception is the failure this test looks for
        raise AssertionError(f"{case}: {type(e).__name__} escaped: {e}") from e
    out, err = capsys.readouterr()
    if code:
        assert ERROR_LINE.fullmatch(err), f"{case}: stderr {err!r}"
    else:
        assert err == "", f"{case}: exit 0 with stderr {err!r}"
        assert "nan" not in out and "inf" not in out, f"{case}: reported {out!r}"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    tp = tmp_path_factory.mktemp("fuzz")
    ds = make_two_class_patches(n_images=2, size=16, seed=0)
    save_dataset(tp / "x.pvgt", tp / "y.csv", ds)
    save_checkpoint(Model(ModelConfig(**MODEL), seed=0), tp / "ckpt")
    return tp


@pytest.mark.filterwarnings("error")  # a warning would be a stderr line of its own
@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_checkpoint_eval(checkpoint, capsys, seed):
    tp = checkpoint
    ckpt = tp / "ckpt"
    manifest_path = ckpt / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    files = sorted(p for p in ckpt.iterdir() if p.suffix == ".pvgt")
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
    rng = random.Random(seed)
    for i in range(CASES):
        kind = rng.choice(["manifest", "delete", "truncate", "flip"])
        if kind == "manifest":
            path, value = rng.choice(leaves(manifest)), rng.choice(VALUES)
            target, original = manifest_path, manifest_path.read_bytes()
            target.write_text(json.dumps(replaced(manifest, path, value)))
            case = f"seed {seed} case {i}: manifest {path} = {value!r}"
        else:
            target = rng.choice(files)
            original = target.read_bytes()
            if kind == "delete":
                target.unlink()
                case = f"seed {seed} case {i}: {target.name} deleted"
            elif kind == "truncate":
                size = rng.randrange(len(original))
                target.write_bytes(original[:size])
                case = f"seed {seed} case {i}: {target.name} truncated to {size} bytes"
            else:
                at, mask = rng.randrange(len(original)), 1 << rng.randrange(8)
                flipped = bytearray(original)
                flipped[at] ^= mask
                target.write_bytes(bytes(flipped))
                case = f"seed {seed} case {i}: {target.name} byte {at} ^ {mask}"
        try:
            run_case(argv, case, capsys)
        finally:
            target.write_bytes(original)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_dataset_eval(checkpoint, capsys, seed):
    tp = checkpoint
    images, labels = tp / "x.pvgt", tp / "y.csv"
    argv = ["eval", "--checkpoint", str(tp / "ckpt"), "--data", str(images), "--labels", str(labels)]
    rng = random.Random(seed)
    for i in range(DATA_CASES):
        kind = rng.choice(["truncate", "flip", "cell"])
        target = labels if kind == "cell" else rng.choice([images, labels])
        original = target.read_bytes()
        if kind == "truncate":
            size = rng.randrange(len(original))
            target.write_bytes(original[:size])
            case = f"seed {seed} case {i}: {target.name} truncated to {size} bytes"
        elif kind == "flip":
            at, mask = rng.randrange(len(original)), 1 << rng.randrange(8)
            flipped = bytearray(original)
            flipped[at] ^= mask
            target.write_bytes(bytes(flipped))
            case = f"seed {seed} case {i}: {target.name} byte {at} ^ {mask}"
        else:
            rows = list(csv.reader(io.StringIO(original.decode(), newline="")))
            row, col, value = rng.randrange(len(rows)), rng.randrange(2), rng.choice(VALUES + [LONG_CELL])
            rows[row][col] = str(value)
            with open(target, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            case = f"seed {seed} case {i}: {target.name} row {row + 1} cell {col} = {str(value)[:20]!r}"
        try:
            run_case(argv, case, capsys)
        finally:
            target.write_bytes(original)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_run_config_count(tmp_path, capsys, seed):
    run = RunConfig(model=ModelConfig(**MODEL)).to_dict()
    rng = random.Random(seed)
    for i in range(CASES):
        path, value = rng.choice(leaves(run)), rng.choice(VALUES)
        (tmp_path / "run.json").write_text(json.dumps(replaced(run, path, value)))
        run_case(["count", "--config", str(tmp_path / "run.json")], f"seed {seed} case {i}: {path} = {value!r}", capsys)

