"""The C library's exported functions against the ctypes tables of
``native``: the same set of names (``nm -D --defined-only``), and for each
the return type of ``RESTYPES`` (a status or nothing) and the parameters of
``ARGTYPES``, read from the preprocessed ``native.c`` (``gcc -E``).  A
kernel that returns a status but is called as ``void`` would have its
status ignored, and one called with too few arguments would read garbage;
neither shows in a call that happens to work.  The FP32 approximation
engines of the loaded library must also hold packed float arithmetic in
each target clone (``objdump -d``): a select written so that the
vectoriser cannot if-convert it leaves an engine a scalar loop, with the
same bits at a fraction of the speed."""

import ctypes
import platform
import re
import shutil
import subprocess

import pytest

from tensorprim import native

# the C parameter and return types of native.c and their ctypes
_CTYPES = {"int64_t": ctypes.c_int64, "intptr_t": ctypes.c_ssize_t, "float": ctypes.c_float,
           "double": ctypes.c_double}


def _tools():
    for tool in ("nm", native.CC):
        if shutil.which(tool) is None:
            pytest.skip(f"no {tool!r} on PATH")


@pytest.fixture(params=["loaded", "default"])
def library_path(request) -> str:
    """The library as loaded on this machine (with its target clones), and
    its build without clones."""
    _tools()
    if request.param == "loaded":
        lib = native.library()
        if lib is None:
            pytest.skip("the C library is unavailable")
        return lib._name
    return request.getfixturevalue("default_build")._name


def _exported(path: str) -> set[str]:
    """The functions the library exports; the ``.resolver`` of a target
    clone is the compiler's, not a kernel."""
    out = subprocess.run(["nm", "-D", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "TWi" and "." not in fields[2]:
            names.add(fields[2])
    return names


@pytest.fixture(scope="module")
def c_source() -> str:
    """``native.c`` preprocessed without target clones, every macro-made
    kernel spelled out."""
    _tools()
    return subprocess.run([native.CC, "-E", "-P", "-DMULTIVERSION=", str(native.SOURCE)],
                          check=True, capture_output=True, text=True).stdout


def _signature(source: str, name: str) -> tuple[str, list[str]]:
    """The return type and parameter list of the definition of ``name``."""
    found = re.findall(rf"(?<![\w*])(\w+)\s+{name}\s*\(([^()]*)\)\s*\{{", source)
    assert len(found) == 1, f"{name}: {len(found)} definitions"
    ret, params = found[0]
    params = [p.strip() for p in params.split(",")]
    return ret, [] if params == ["void"] else params


def _ctype(param: str):
    if "*" in param:
        return ctypes.c_void_p
    ctype = param.replace("const ", "").split()[0]
    assert ctype in _CTYPES, param
    return _CTYPES[ctype]


def test_the_library_exports_exactly_the_argtypes_kernels(library_path):
    assert _exported(library_path) == set(native.ARGTYPES)


@pytest.mark.parametrize("name", sorted(native.ARGTYPES))
def test_each_kernel_is_called_with_its_c_signature(name, c_source):
    ret, params = _signature(c_source, name)
    assert ret in ("void", "int64_t"), ret
    assert native.RESTYPES.get(name) is (ctypes.c_int64 if ret == "int64_t" else None)
    argtypes = native.ARGTYPES[name]
    assert len(argtypes) == len(params)
    for param, argtype in zip(params, argtypes):
        assert argtype is _ctype(param), (name, param, argtype)


@pytest.mark.parametrize("name", sorted(native.ENGINES))
def test_every_engine_has_a_caller_in_the_library(name):
    """An engine that only tests reach is dead code: some module of the
    package other than ``native`` names it as a string literal."""
    quoted = re.compile(rf"[\"']{name}[\"']")
    callers = [p.name for p in native.SOURCE.parent.glob("*.py")
               if p.name != "native.py" and quoted.search(p.read_text())]
    assert callers, f"{name}: no caller outside native.py"


_PACKED = re.compile(r"\sv?(?:mul|add|div)ps\s")


def test_the_fp32_approximation_engines_vectorise():
    """Each FP32 approximation engine, in its ``.avx2`` and its ``.default``
    clone, runs packed float arithmetic (``mulps``, ``addps`` or ``divps``,
    VEX-encoded or not): its loop is vectorised, not a scalar loop with a
    branch per element."""
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("the target clones are built on x86-64 only")
    if shutil.which("objdump") is None:
        pytest.skip("no 'objdump' on PATH")
    lib = native.library()
    if lib is None:
        pytest.skip("the C library is unavailable")
    listing = subprocess.run(["objdump", "-d", "--no-show-raw-insn", lib._name], check=True,
                             capture_output=True, text=True).stdout
    bodies = {}
    for block in listing.split("\n\n"):
        head = re.search(r"^[0-9a-f]+ <([^>]+)>:$", block, re.M)
        if head:
            bodies[head.group(1)] = block
    packed = {}
    for engine in ("exp_taylor_f32", "tanh_pade78_f32", "minimax_f32"):
        for clone in ("avx2", "default"):
            name = f"{engine}.{clone}"
            assert name in bodies, f"{name}: no such function in {lib._name}"
            packed[name] = len(_PACKED.findall(bodies[name]))
    assert all(packed.values()), packed
