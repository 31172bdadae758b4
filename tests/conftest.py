import ctypes
import shutil
import subprocess

import pytest

from tensorprim import native


@pytest.fixture(scope="session")
def default_build(tmp_path_factory):
    """The C kernels built without their AVX2 clones (``-DMULTIVERSION=``):
    the code that runs where the CPU lacks AVX2."""
    path = tmp_path_factory.mktemp("default-build") / "native.so"
    subprocess.run([native.CC, *native.FLAGS, "-DMULTIVERSION=", "-o", str(path),
                    str(native.SOURCE)], check=True, capture_output=True)
    return ctypes.CDLL(str(path))


@pytest.fixture(params=["native", "native-default", "numpy"])
def native_backend(request, monkeypatch):
    """Run the test on the C kernels as loaded on this machine, on their
    default (non-AVX2) build, and on the numpy reference paths (forced by
    the test-only switch ``native._USE_NATIVE``); every caller of a C
    kernel, the contraction and the reductions alike, takes that backend."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "_USE_NATIVE", False)
    elif shutil.which(native.CC) is None:
        pytest.skip(f"no C compiler {native.CC!r} on PATH")
    elif request.param == "native-default":
        monkeypatch.setattr(native, "_lib", request.getfixturevalue("default_build"))
    want = request.param.split("-")[0]
    assert native.backend() == want
    return request.param
