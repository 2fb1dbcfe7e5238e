"""The package's erf (``pvg._erf.erf``) against scipy's double erf.

float32 is held to :data:`ULP_BOUND` ulp of the float32 result over every
64th bit pattern in [0, 4.5], with exact odd symmetry, saturation to +-1 at
|x| >= 3.92 and NaN passed through. float64, the cephes port, is held to
1 ulp on a dense sample. Importing the package loads no scipy module.

Run as a script, ``PYTHONPATH=src python tests/test_erf.py``, it sweeps every
finite non-negative float32 (2**31 - 2**23 patterns, a few minutes) and
prints the largest error.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf as sp_erf

from pvg import _erf
from pvg._erf import erf

ULP_BOUND = 1.5  # the float32 bound stated in cdf_gate's docstring
SATURATES = np.float32(3.92)
_CHUNK = 1 << 20


def float32_ulp_error(bits: np.ndarray) -> np.ndarray:
    """|erf32(x) - erf64(x)| / spacing(float32(erf64(x))) for the float32
    values with the given bit patterns, erf64 being scipy's."""
    x = bits.view(np.float32)
    ref = sp_erf(x.astype(np.float64))
    got = erf(x, np.empty_like(x))
    return np.abs(got - ref) / np.abs(np.spacing(ref.astype(np.float32)))


def max_float32_ulp_error(lo: int, hi: int, step: int) -> float:
    """Largest float32 error over the bit patterns ``range(lo, hi, step)``."""
    worst = 0.0
    for start in range(lo, hi, _CHUNK * step):
        bits = np.arange(start, min(hi, start + _CHUNK * step), step, dtype=np.uint32)
        worst = max(worst, float(float32_ulp_error(bits).max()))
    return worst


def call(x: np.ndarray) -> np.ndarray:
    return erf(x, np.empty_like(x))


class TestFloat32:
    def test_every_64th_pattern_in_0_to_4_5(self):
        hi = int(np.array(4.5, np.float32).view(np.uint32))
        assert max_float32_ulp_error(0, hi + 1, 64) <= ULP_BOUND

    def test_subnormals(self):
        bits = np.arange(1, 1 << 23, 97, dtype=np.uint32)
        assert float32_ulp_error(bits).max() <= ULP_BOUND
        x = bits.view(np.float32)
        assert np.all(call(x) > 0) and np.all(call(-x) < 0)

    def test_exactly_odd(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.normal(scale=2.0, size=50_000),
            rng.uniform(-5.0, 5.0, size=50_000),
            [0.0, 1e-40, 1e-30, 1.0, 3.92, 1e30, np.inf],
        ]).astype(np.float32)
        assert call(-x).tobytes() == (-call(x)).tobytes()
        zero = call(np.array([-0.0, 0.0], np.float32))
        assert zero.tolist() == [0.0, 0.0] and np.signbit(zero).tolist() == [True, False]

    def test_plus_minus_one_at_and_beyond_3_92(self):
        x = np.concatenate([
            np.arange(0, 4096, dtype=np.uint32) + SATURATES.view(np.uint32),  # just above 3.92
            np.geomspace(3.92, 3e38, 2000).astype(np.float32).view(np.uint32),
        ]).view(np.float32)
        x = np.concatenate([x, [SATURATES, np.inf]]).astype(np.float32)
        assert np.all(call(x) == 1.0) and np.all(call(-x) == -1.0)

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan, 1.0], np.float32)
        assert np.isnan(call(x)[:2]).all()


class TestFloat64:
    def test_within_one_ulp_of_scipy(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([
            rng.uniform(-7.0, 7.0, size=1_000_000),
            rng.uniform(-1.0, 1.0, size=500_000),
            np.exp(rng.uniform(-700.0, 2.0, size=500_000)) * rng.choice([-1.0, 1.0], size=500_000),
            [0.0, 1.0, -1.0, 6.0, -6.0, 1e300],
        ])
        ref = sp_erf(x)
        err = np.abs(call(x) - ref) / np.spacing(np.abs(ref))
        assert err.max() <= 1.0

    def test_special_values(self):
        got = call(np.array([-0.0, 0.0, np.inf, -np.inf, np.nan]))
        assert np.signbit(got[:2]).tolist() == [True, False] and got[1] == 0.0
        assert got[2:4].tolist() == [1.0, -1.0] and np.isnan(got[4])


class TwoPassClamp(np.ndarray):
    """An array whose ``clip`` is the two-pass ``maximum``/``minimum`` clamp,
    NaN kept as ``maximum`` keeps it: the reference for erf's one-pass clamps."""

    def clip(self, lo, hi, out):
        np.maximum(self, lo, out=out)
        return np.minimum(out, hi, out=out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clamps_give_the_bits_of_the_two_pass_clamp(dtype):
    # Each kernel runs once on plain arrays and once on arrays whose clip is
    # the two passes; the results must be the same bytes.
    fi = np.finfo(dtype)
    edges = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, fi.smallest_subnormal,
             fi.tiny / 2, fi.tiny, 1.0, 3.92, 6.0, fi.max]
    x = np.concatenate([
        np.array(edges, dtype=dtype),
        -np.array(edges, dtype=dtype),
        np.nextafter(np.array([1.0, 3.92, 6.0], dtype=dtype), 0),
        np.random.default_rng(33).normal(scale=3.0, size=4096).astype(dtype),
    ])
    kernel = _erf._erf32 if dtype == np.float32 else _erf._erf64
    runs = []
    for kind in (np.ndarray, TwoPassClamp):
        arrays = [a.view(kind) for a in (x, np.empty_like(x), *np.empty((4, x.size), dtype))]
        kernel(*arrays)
        runs.append(arrays[1].tobytes())
    assert runs[0] == runs[1]
    assert runs[0] == call(x).tobytes()


class TestCalling:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_and_blocked(self, dtype):
        # Longer than one block, so every block boundary is crossed.
        x = np.random.default_rng(9).normal(scale=2.0, size=(300, 211)).astype(dtype)
        want = np.concatenate([call(row) for row in x]).reshape(x.shape)
        same = x.copy()
        assert erf(same, out=same) is same and same.tobytes() == want.tobytes()

    def test_rejects_bad_out_and_dtype(self):
        x = np.zeros((4, 4), np.float32)
        bad = (np.zeros((4, 4)), np.zeros(16, np.float32), np.zeros((4, 4), np.float32, order="F"))
        for out in bad:
            with pytest.raises(ValueError):
                erf(x, out)
        with pytest.raises(TypeError):
            erf(np.zeros(3, np.int64), np.zeros(3, np.int64))


def test_package_imports_no_scipy():
    # scipy is a test-only dependency: importing every pvg module loads none of it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; import pvg, pvg.cli, pvg.train, pvg.graphlu; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", run.stdout


if __name__ == "__main__":
    top = int(np.array(np.finfo(np.float32).max).view(np.uint32))
    print(f"largest float32 erf error over every finite non-negative float32: "
          f"{max_float32_ulp_error(0, top + 1, 1):.4f} ulp")
