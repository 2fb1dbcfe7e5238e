"""The byte-equality tests that the model's recompute nodes rest on, rerun
under each OpenBLAS kernel this CPU can run.

numpy's bundled OpenBLAS picks its kernels for the CPU when it loads;
``OPENBLAS_CORETYPE`` makes it pick others. Each kernel's run is a child
pytest process with that variable set, running ``BIT_TESTS``; this process
keeps the kernels it has. A kernel needing an instruction set that
``/proc/cpuinfo`` does not list is skipped, naming the flags it lacks. The
children run two at a time.
"""

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from pvg.net import ACTIVATIONS

from conftest import openblas_core
from test_net import SWEPT_LAYOUTS

ROOT = Path(__file__).resolve().parents[1]
# Kernel -> (the CPU flags its code needs, the names OpenBLAS reports for it).
# An x86-64 build shares its Prescott kernels with Katmai and names them so.
KERNELS = {
    "Prescott": ({"pni"}, {"Prescott", "Katmai"}),
    "Nehalem": ({"ssse3", "sse4_1", "sse4_2"}, {"Nehalem"}),
    "Sandybridge": ({"avx"}, {"Sandybridge"}),
    "Haswell": ({"avx2", "fma"}, {"Haswell"}),
    "SkylakeX": ({"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"}, {"SkylakeX"}),
}
# The recompute node against its pass-through (MaxE, every activation and
# layout), the recompute op itself, the gate against its elementwise chain,
# and the FFN's row blocks against theirs.
BIT_TESTS = [
    f"tests/test_net.py::TestAutogradGraph::test_recompute_equals_the_pass_through_in_the_model[MaxE-{act}-{layout}]"
    for act in ACTIVATIONS
    for layout in SWEPT_LAYOUTS
] + [
    "tests/test_tensor.py::TestRecompute",
    "tests/test_tensor.py::TestWholeArrayGate::test_cdf_gate_equals_the_elementwise_chain",
    "tests/test_net.py::TestFfnSublayer::test_row_blocks_equal_the_elementwise_chain",
]


def cpu_flags() -> set[str]:
    """The instruction-set flags of the first CPU in /proc/cpuinfo, or none."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines if line.startswith("flags")), set())


def run_under(kernel: str) -> subprocess.CompletedProcess:
    # One OpenBLAS thread a child, so that two children's spinning thread
    # pools do not contend for the cores (three times the time).
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *BIT_TESTS]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    """Per runnable kernel, the future of its child's result."""
    if openblas_core() == "unknown":
        pytest.skip("numpy's bundled OpenBLAS is not there to switch kernels")
    flags = cpu_flags()
    runnable = [kernel for kernel, (needs, _) in KERNELS.items() if needs <= flags]
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {kernel: pool.submit(run_under, kernel) for kernel in runnable}


@pytest.mark.parametrize("kernel", KERNELS)
def test_bit_equalities_hold_under_kernel(runs, kernel):
    needs, names = KERNELS[kernel]
    if kernel not in runs:
        pytest.skip(f"this CPU lacks {sorted(needs - cpu_flags())}, which the {kernel} kernels need")
    done = runs[kernel].result()
    tail = (done.stdout + done.stderr)[-3000:]
    core = re.search(r"^openblas core: (\S+)$", done.stdout, re.M)
    assert core and core[1] in names, f"asked for {kernel}, ran on {core and core[1]}:\n{tail}"
    # pytest exits nonzero on a failure, and on a node id that names no test.
    assert done.returncode == 0, tail
