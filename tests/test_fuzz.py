"""Seeded fuzzing of the CLI's inputs: every case either succeeds or fails
with exactly one ``error:<category>:`` line on stderr.

``pvg eval`` and ``pvg diag`` cases corrupt a checkpoint: a manifest leaf
replaced, a parameter file deleted, truncated or with one byte flipped.
Other ``pvg eval`` cases corrupt the dataset: the image file or the labels
CSV truncated or with one byte flipped, or one CSV cell replaced, or one
extent of a parameter file or of the image file raised past what the file
holds; other ``pvg diag`` cases corrupt the image file. ``pvg count`` cases replace a
leaf of a run config, and ``pvg train`` cases replace one or corrupt the
image or labels file. The cases are fixed by their seeds, and each runs
``cli.main`` in-process on files under a pytest temporary directory.
"""

import csv
import io
import json
import random
import re

import pytest

from pvg.cli import main as cli_main
from pvg.data import make_two_class_patches, save_dataset
from pvg.net import Model, ModelConfig, count_params_flops, save_checkpoint
from pvg.train import RunConfig, ScheduleConfig

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
TRAIN_CASES = 32  # per seed
# A train case runs at most this many steps, at most twice MODEL's parameters
# and mult-adds: each replaced value then costs at most a few tenths of a
# second.
MAX_STEPS = 3


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


def corrupt(target, kind: str, rng: random.Random) -> str:
    """Truncate ``target`` or flip one of its bits; the case's description."""
    original = target.read_bytes()
    if kind == "truncate":
        size = rng.randrange(len(original))
        target.write_bytes(original[:size])
        return f"{target.name} truncated to {size} bytes"
    at, mask = rng.randrange(len(original)), 1 << rng.randrange(8)
    flipped = bytearray(original)
    flipped[at] ^= mask
    target.write_bytes(bytes(flipped))
    return f"{target.name} byte {at} ^ {mask}"


def corrupted_checkpoint_cases(ckpt, argv, seed, capsys):
    """CASES runs of ``argv`` on a checkpoint with its manifest, or one
    parameter file, corrupted; each case is undone after it runs."""
    manifest_path = ckpt / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    files = sorted(p for p in ckpt.iterdir() if p.suffix == ".pvgt")
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
            else:
                case = f"seed {seed} case {i}: {corrupt(target, kind, rng)}"
        try:
            run_case(argv, case, capsys)
        finally:
            target.write_bytes(original)


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
    argv = ["eval", "--checkpoint", str(tp / "ckpt"), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
    corrupted_checkpoint_cases(tp / "ckpt", argv, seed, capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_checkpoint_diag(checkpoint, tmp_path, capsys, seed):
    tp = checkpoint
    argv = ["diag", "--checkpoint", str(tp / "ckpt"), "--data", str(tp / "x.pvgt"), "--out", str(tmp_path / "trace.csv")]
    corrupted_checkpoint_cases(tp / "ckpt", argv, seed, capsys)


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
        if kind != "cell":
            case = f"seed {seed} case {i}: {corrupt(target, kind, rng)}"
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



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_image_file_diag(checkpoint, tmp_path, capsys, seed):
    tp = checkpoint
    images = tp / "x.pvgt"
    argv = ["diag", "--checkpoint", str(tp / "ckpt"), "--data", str(images), "--out", str(tmp_path / "trace.csv")]
    original = images.read_bytes()
    rng = random.Random(seed)
    for i in range(DATA_CASES // 2):  # one file, not eval's two
        case = f"seed {seed} case {i}: {corrupt(images, rng.choice(['truncate', 'flip']), rng)}"
        try:
            run_case(argv, case, capsys)
        finally:
            images.write_bytes(original)


# Extents that declare more than the file holds: one element more, 1024
# times as many, and past what any allocation could hold.
INFLATED = [lambda e: e + 1, lambda e: e * 1024, lambda e: 2**31, lambda e: 2**32 - 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("which", ["parameter", "images"])
@pytest.mark.parametrize("seed", SEEDS)
def test_extents_past_the_file_eval(checkpoint, capsys, which, seed):
    # The declared size is checked against the file's before anything is
    # allocated: a file-format error, never a memory error.
    tp = checkpoint
    argv = ["eval", "--checkpoint", str(tp / "ckpt"), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
    if which == "parameter":
        files = sorted(p for p in (tp / "ckpt").iterdir() if p.suffix == ".pvgt")
    else:
        files = [tp / "x.pvgt"]
    rng = random.Random(seed)
    for i in range(len(INFLATED) * 4):
        target = rng.choice(files)
        original = target.read_bytes()
        rank = int.from_bytes(original[4:8], "little")
        axis, inflate = rng.randrange(rank), INFLATED[i % len(INFLATED)]
        at = 8 + 4 * axis
        extent = int.from_bytes(original[at : at + 4], "little")
        target.write_bytes(original[:at] + inflate(extent).to_bytes(4, "little") + original[at + 4 :])
        case = f"seed {seed} case {i}: {target.name} extent {axis} {extent} -> {inflate(extent)}"
        try:
            code = cli_main(argv)
            _, err = capsys.readouterr()
            assert code and ERROR_LINE.fullmatch(err) and err.startswith("error:file-format:"), f"{case}: {err!r}"
        finally:
            target.write_bytes(original)


def too_long(path) -> bool:
    """Whether the run config at ``path`` is valid but would train for more
    than MAX_STEPS steps, or more than twice MODEL's parameters or mult-adds
    (a stage depth of 1000, 64 x 64 images at patch 1). Such a run is not an
    error to find, only a slow one, so its case is skipped."""
    try:
        run = RunConfig.from_json(path)
    except Exception:  # the case fails fast; run_case judges how
        return False
    params, multadds = count_params_flops(ModelConfig(**MODEL))
    run_params, run_multadds = count_params_flops(run.model)
    return run.schedule.total_steps > MAX_STEPS or run_params > 2 * params or run_multadds > 2 * multadds


@pytest.mark.parametrize(
    "path, value",
    [(("schedule", "total_steps"), 1000), (("model", "stage_depths", 2), 1000), (("model", "image_size"), 64)],
)
def test_long_train_is_skipped(tmp_path, path, value):
    run = RunConfig(model=ModelConfig(**MODEL), schedule=ScheduleConfig(warmup_steps=0, total_steps=1)).to_dict()
    (tmp_path / "run.json").write_text(json.dumps(run))
    assert not too_long(tmp_path / "run.json")
    (tmp_path / "run.json").write_text(json.dumps(replaced(run, path, value)))
    assert too_long(tmp_path / "run.json")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_train(tmp_path, monkeypatch, capsys, seed):
    # A relative output_dir ("", "MaxE") lands under tmp_path too.
    monkeypatch.chdir(tmp_path)
    images, labels, config = tmp_path / "x.pvgt", tmp_path / "y.csv", tmp_path / "run.json"
    save_dataset(images, labels, make_two_class_patches(n_images=2, size=16, seed=0))
    run = RunConfig(
        model=ModelConfig(**MODEL),
        schedule=ScheduleConfig(warmup_steps=0, total_steps=1),
        batch_size=2,
        output_dir=str(tmp_path / "run"),
    ).to_dict()
    config.write_text(json.dumps(run))
    argv = ["train", "--config", str(config), "--data", str(images), "--labels", str(labels)]
    rng = random.Random(seed)
    skipped = 0
    for i in range(TRAIN_CASES):
        kind = rng.choice(["config", "config", "truncate", "flip"])
        if kind == "config":
            target, original = config, config.read_bytes()
            path, value = rng.choice(leaves(run)), rng.choice(VALUES)
            config.write_text(json.dumps(replaced(run, path, value)))
            case = f"seed {seed} case {i}: {path} = {value!r}"
        else:
            target = rng.choice([images, labels])
            original = target.read_bytes()
            case = f"seed {seed} case {i}: {corrupt(target, kind, rng)}"
        try:
            if kind == "config" and too_long(config):
                skipped += 1
                continue
            run_case(argv, case, capsys)
        finally:
            target.write_bytes(original)
    assert skipped < TRAIN_CASES // 4, skipped
