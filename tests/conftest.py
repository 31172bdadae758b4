import ctypes
from pathlib import Path
import platform
import shutil
import subprocess

import pytest

from tensorprim import native


def _build(tmp_path_factory, name: str, *flags: str) -> ctypes.CDLL:
    path = tmp_path_factory.mktemp(name) / "native.so"
    subprocess.run([native.CC, *native.FLAGS, *flags, "-o", str(path), str(native.SOURCE)],
                   check=True, capture_output=True)
    return ctypes.CDLL(str(path))


def _cpu_has_avx2() -> bool:
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        info = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return any(line.startswith("flags") and "avx2" in line.split() for line in info.splitlines())


@pytest.fixture(scope="session")
def default_build(tmp_path_factory):
    """The C kernels built without their target clones (``-DMULTIVERSION=``):
    the code that runs where the CPU lacks AVX2."""
    return _build(tmp_path_factory, "default-build", "-DMULTIVERSION=")


@pytest.fixture(scope="session")
def avx2_build(tmp_path_factory):
    """The C kernels built for AVX2 alone (clones off, ``-mavx2``): the code
    that runs on a CPU with AVX2 but without AVX-512, which the loaded
    library never picks on a CPU with AVX-512."""
    return _build(tmp_path_factory, "avx2-build", "-DMULTIVERSION=", "-mavx2")


def _select_backend(request, monkeypatch) -> str:
    if request.param == "numpy":
        monkeypatch.setattr(native, "_lib", False)
    elif shutil.which(native.CC) is None:
        pytest.skip(f"no C compiler {native.CC!r} on PATH")
    elif request.param == "native-default":
        monkeypatch.setattr(native, "_lib", request.getfixturevalue("default_build"))
    elif request.param == "native-avx2":
        if not _cpu_has_avx2():
            pytest.skip("the CPU lacks AVX2")
        monkeypatch.setattr(native, "_lib", request.getfixturevalue("avx2_build"))
    want = request.param.split("-")[0]
    assert native.backend() == want
    return request.param


@pytest.fixture(params=["native", "native-default", "numpy"])
def native_backend(request, monkeypatch):
    """Run the test on the C kernels as loaded on this machine, on their
    default (no target clone) build, and on the numpy reference paths
    (forced by setting ``native._lib`` to False); every caller of
    a C kernel, the contraction and the reductions alike, takes that
    backend."""
    return _select_backend(request, monkeypatch)


@pytest.fixture(params=["native", "native-default", "native-avx2", "numpy"])
def gemm_backend(request, monkeypatch):
    """The backends of ``native_backend`` plus the AVX2-only build (skipped
    where the CPU lacks AVX2), for tests that reach a brgemm kernel: only
    the brgemm kernels have an AVX-512F clone, so only their AVX2 code goes
    unrun by the loaded library on a CPU with AVX-512F."""
    return _select_backend(request, monkeypatch)
